package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges one end-to-end metric of one workload by the bound the
// benchmark fixed for it. A spread (interquartile range over the median, on
// either side) wider than the bound cannot resolve a shift of the bound's
// size, so it is reported as unresolved rather than as unchanged.
func verdict(d declared, base, cur metric) string {
	for _, m := range []metric{base, cur} {
		if m.N > 1 && m.Value != 0 && (m.Q3-m.Q1)/m.Value > d.Bound {
			return "unresolved"
		}
	}
	worse := cur.Value > base.Value*(1+d.Bound)
	if d.Better == "higher" {
		worse = cur.Value < base.Value*(1-d.Bound)
	}
	if worse {
		return "worse"
	}
	return "ok"
}

// exactCounts are the per-layer counts that must repeat exactly between two
// runs of one commit.
var exactCounts = []string{"match.matches", "core.matches"}

func sameness(a, b metric) string {
	if a.Value == b.Value {
		return "identical"
	}
	return "DIFFERS"
}

// compareReports prints, per workload and end-to-end metric, base, new, the
// ratio new/base and a verdict. It fails when any metric is worse or a
// workload's fail_frac rose.
func compareReports(root, basePath, curPath string, out io.Writer) error {
	man, err := readManifest(root)
	if err != nil {
		return err
	}
	base, err := readReport(basePath)
	if err != nil {
		return err
	}
	cur, err := readReport(curPath)
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range man.Workloads {
		b, c := base.Workloads[w.Name], cur.Workloads[w.Name]
		if b == nil || c == nil {
			return fmt.Errorf("workload %s is missing from a report", w.Name)
		}
		fmt.Fprintf(out, "%s\n", w.Name)
		for _, d := range man.EndToEnd {
			bm, cm := b.EndToEnd.Metrics[d.Name], c.EndToEnd.Metrics[d.Name]
			v := verdict(d, bm, cm)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(out, "  %-14s base %12.4f  new %12.4f %-4s  new/base %6.3f  (bound %.2f, %s is better)  %s\n",
				d.Name, bm.Value, cm.Value, d.Unit, cm.Value/bm.Value, d.Bound, d.Better, v)
		}
		if c.FailFrac > b.FailFrac {
			bad++
			fmt.Fprintf(out, "  %-14s base %12.4f  new %12.4f       worse\n", "fail_frac", b.FailFrac, c.FailFrac)
		}
		for _, name := range exactCounts {
			bm, cm := b.PerLayer.Metrics[name], c.PerLayer.Metrics[name]
			fmt.Fprintf(out, "  %-14s base %12.0f  new %12.0f count %s\n", name, bm.Value, cm.Value, sameness(bm, cm))
		}
		if bm, ok := b.EndToEnd.Info["store_mb"]; ok {
			cm := c.EndToEnd.Info["store_mb"]
			fmt.Fprintf(out, "  %-14s base %12.6f  new %12.6f MB    %s\n", "store_mb", bm.Value, cm.Value, sameness(bm, cm))
		}
	}
	for _, k := range sortedNames(base.Derived) {
		fmt.Fprintf(out, "%-32s base %8.3f  new %8.3f\n", k, base.Derived[k], cur.Derived[k])
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}
