package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// manifest is the part of BENCHMARK.json the noise table needs.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

// noiseTable reads the result lines selfcheck.sh left in dir — files named
// <set>-<pass>-<workload>.json, sets A and B run interleaved from one build —
// and writes NOISE.md: for every workload × end-to-end metric both medians,
// how much worse the second is, each set's quartile spread, the bound, and
// whether the benchmark would accept itself.
func noiseTable(w io.Writer, dir string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	// values[set][workload][metric] = one value per pass
	values := map[string]map[string]map[string][]float64{"A": {}, "B": {}}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	runs, failed := 0, 0
	for _, f := range files {
		parts := strings.SplitN(strings.TrimSuffix(filepath.Base(f), ".json"), "-", 3)
		if len(parts) != 3 || values[parts[0]] == nil {
			return fmt.Errorf("%s: want <A|B>-<pass>-<workload>.json", f)
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var line struct {
			Correct bool
			Failed  uint64
			Metrics map[string]metric
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		runs++
		if !line.Correct || line.Failed != 0 {
			failed++
		}
		set, wl := values[parts[0]], parts[2]
		if set[wl] == nil {
			set[wl] = map[string][]float64{}
		}
		for name, m := range line.Metrics {
			set[wl][name] = append(set[wl][name], m.Value)
		}
	}
	if runs == 0 {
		return fmt.Errorf("no result lines in %s", dir)
	}

	fmt.Fprintf(w, "# Noise of the benchmark against itself\n\n")
	fmt.Fprintf(w, "Written by `benchmark/selfcheck.sh`: two sets of runs, A and B, of one build, interleaved\n")
	fmt.Fprintf(w, "(A1 B1 A2 B2 …), every run with its own seed, %d runs in all, %d with a failed op.\n\n", runs, failed)
	fmt.Fprintf(w, "`worse` is how far B's median is on the wrong side of A's, as a share of A's; `spread` is the\n")
	fmt.Fprintf(w, "distance between a set's quartiles as a share of its median. A row passes when `worse` and\n")
	fmt.Fprintf(w, "both spreads are within the bound (`setup_s`: `worse` only). `tight` marks rows whose spreads\n")
	fmt.Fprintf(w, "are under a third and whose set-to-set difference is under half of the bound.\n\n")
	fmt.Fprintf(w, "| workload | metric | unit | median A | median B | worse | spread A | spread B | bound | result |\n")
	fmt.Fprintf(w, "|---|---|---|---:|---:|---:|---:|---:|---:|---|\n")
	var demote []string
	fails := 0
	for _, wl := range man.Workloads {
		for _, m := range man.EndToEnd {
			a, b := values["A"][wl.Name][m.Name], values["B"][wl.Name][m.Name]
			if len(a) < 2 || len(b) < 2 {
				return fmt.Errorf("%s/%s: %d and %d values, need at least 2 per set", wl.Name, m.Name, len(a), len(b))
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / math.Abs(ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(a), quartileSpread(b)
			spread := math.Max(sa, sb)
			if m.Name == "setup_s" {
				spread = 0 // the acceptance check exempts its spread
			}
			diff := math.Abs(worse)
			verdict := "PASS"
			switch {
			case worse > m.Bound, spread > m.Bound:
				verdict = "FAIL"
				fails++
			case diff <= m.Bound/2 && spread <= m.Bound/3:
				verdict = "PASS tight"
			}
			if diff > m.Bound/2 {
				demote = append(demote, wl.Name+"/"+m.Name)
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.4g | %.4g | %+.1f %% | %.1f %% | %.1f %% | %.0f %% | %s |\n",
				wl.Name, m.Name, m.Unit, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "\n%d of %d rows fail.\n", fails, len(man.Workloads)*len(man.EndToEnd))
	if len(demote) > 0 {
		fmt.Fprintf(w, "\nSet-to-set difference above half the bound — candidates for demotion to a per-layer metric: %s.\n",
			strings.Join(demote, ", "))
	}
	return nil
}
