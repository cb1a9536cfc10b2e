package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// benchmarkDef is the part of BENCHMARK.json -compare applies.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare compares the untraced runs of two -out files, one row per
// workload and end-to-end metric, and reports whether any row is worse.
// A row is worse when the change's median is worse than the parent's by
// more than the metric's bound; unresolved when the parent's own
// quartile spread is wider than the bound (unless every change run
// beats every parent run); improved when the medians differ, in the
// better direction, by more than that spread; unchanged otherwise. A
// workload whose change runs failed any op, or that the change did not
// run, is worse.
func runCompare(w io.Writer, specPath, parentPath, changePath string) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readOut(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readOut(changePath)
	if err != nil {
		return false, err
	}
	p, c := untracedRuns(parent), untracedRuns(change)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median\tchange\tverdict")
	worse := false
	for _, name := range workloadNames {
		pr, cr := p[name], c[name]
		switch {
		case len(pr) == 0 && len(cr) == 0:
			continue
		case len(cr) == 0:
			fmt.Fprintf(tw, "%s\t-\t%d runs\tno runs\t\tworse\n", name, len(pr))
			worse = true
			continue
		case len(pr) == 0:
			fmt.Fprintf(tw, "%s\t-\tno runs\t%d runs\t\tunresolved\n", name, len(cr))
			continue
		}
		for _, run := range cr {
			if run.Failed > 0 {
				fmt.Fprintf(tw, "%s\tfailed ops\t\t%d of %d (seed %d)\t\tworse\n", name, run.Failed, run.Attempted, run.Seed)
				worse = true
			}
		}
		for _, m := range def.EndToEnd {
			pv, cv := metricValues(pr, m.Name), metricValues(cr, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d values\t%d values\t\tunresolved\n", name, m.Name, len(pv), len(cv))
				continue
			}
			verdict, delta := classify(pv, cv, m.Better == "higher", m.Bound)
			if verdict == "worse" {
				worse = true
			}
			q := quartiles(pv)
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g] %s\t%.6g %s\t%+.1f%%\t%s\n",
				name, m.Name, quantile(pv, 0.5), q[0], q[2], m.Unit, quantile(cv, 0.5), m.Unit, 100*delta, verdict)
		}
	}
	return worse, tw.Flush()
}

func untracedRuns(doc *outFile) map[string][]runRecord {
	out := map[string][]runRecord{}
	for _, r := range doc.Runs {
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}

func metricValues(runs []runRecord, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// classify returns a row's verdict and the change's median relative to
// the parent's (signed, positive = larger).
func classify(parent, change []float64, higherBetter bool, bound float64) (string, float64) {
	pm, cm := quantile(parent, 0.5), quantile(change, 0.5)
	q := quartiles(parent)
	spread := ratio(q[2]-q[0], pm)
	delta := ratio(cm-pm, pm)
	worseBy := delta
	allBetter := slices.Max(change) < slices.Min(parent)
	if higherBetter {
		worseBy = -delta
		allBetter = slices.Min(change) > slices.Max(parent)
	}
	switch {
	case allBetter && -worseBy > spread:
		return "improved", delta
	case spread > bound:
		return "unresolved", delta
	case worseBy > bound:
		return "worse", delta
	case -worseBy > spread:
		return "improved", delta
	}
	return "unchanged", delta
}

// quartiles returns the three cut points of values into four groups by
// the same method as Python's statistics.quantiles(values, n=4) (the
// "exclusive" default).
func quartiles(values []float64) [3]float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
