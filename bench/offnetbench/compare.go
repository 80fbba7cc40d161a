package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// declaration is the part of BENCHMARK.json the comparison needs.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readDeclaration(path string) (*declaration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &d, nil
}

// readResults loads the untraced runs of a results.jsonl file, grouped
// by workload in file order.
func readResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]*result)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

// The verdicts compareMetric gives.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairsForGain is the fewest run pairs a gain can rest on.
const minPairsForGain = 10

type comparison struct {
	parent, change [3]float64 // first quartile, median, third quartile
	pairs, wins    int
	verdict        string
}

// compareMetric pairs the i-th parent run with the i-th change run and
// judges the change:
//   - improved: at least minPairsForGain pairs, the change wins 9 in 10
//     of them, and the medians differ, in its favour, by more than the
//     parent's own spread (its interquartile range);
//   - worse: the change's median is worse than the parent's by more than
//     bound, a share of the parent's median;
//   - unresolved: neither, but the parent's spread is wider than the
//     bound, so "no worse" cannot be shown, unless every change run is
//     better than every parent run;
//   - unchanged: otherwise.
func compareMetric(pa, ch []float64, lowerBetter bool, bound float64) comparison {
	n := min(len(pa), len(ch))
	pa, ch = pa[:n], ch[:n]
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	c := comparison{pairs: n}
	for i := range pa {
		if better(ch[i], pa[i]) {
			c.wins++
		}
	}
	c.parent[0], c.parent[1], c.parent[2] = quartiles(pa)
	c.change[0], c.change[1], c.change[2] = quartiles(ch)
	pm, cm := c.parent[1], c.change[1]
	iqr := c.parent[2] - c.parent[0]
	worsening := (cm - pm) / pm
	if !lowerBetter {
		worsening = -worsening
	}
	allBetter := true
	for _, x := range ch {
		for _, y := range pa {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case n >= minPairsForGain && 10*c.wins >= 9*n && better(cm, pm) && math.Abs(cm-pm) > iqr:
		c.verdict = improved
	case worsening > bound:
		c.verdict = worse
	case iqr/pm > bound && !allBetter:
		c.verdict = unresolved
	default:
		c.verdict = unchanged
	}
	return c
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles, the share of pairs the change wins, and the
// verdict. Runs pair up in file order, so record them alternating.
func compareFiles(w io.Writer, declPath, parentPath, changePath string) error {
	decl, err := readDeclaration(declPath)
	if err != nil {
		return err
	}
	parent, err := readResults(parentPath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-15s %-34s %-34s %5s  %s\n", "workload", "metric",
		"parent median [q1 q3]", "change median [q1 q3]", "wins", "verdict")
	for _, wl := range decl.Workloads {
		pa, ch := parent[wl.Name], change[wl.Name]
		n := min(len(pa), len(ch))
		if n < 3 {
			fmt.Fprintf(w, "%-12s needs at least 3 runs on each side, has %d and %d\n", wl.Name, len(pa), len(ch))
			continue
		}
		for _, m := range decl.EndToEnd {
			var pv, cv []float64
			for i := 0; i < n; i++ {
				pv = append(pv, pa[i].Metrics[m.Name])
				cv = append(cv, ch[i].Metrics[m.Name])
			}
			c := compareMetric(pv, cv, m.Better == "lower", m.Bound)
			side := func(q [3]float64) string {
				return fmt.Sprintf("%.5g [%.5g %.5g] %s", q[1], q[0], q[2], m.Unit)
			}
			fmt.Fprintf(w, "%-12s %-15s %-34s %-34s %2d/%-2d  %s\n", wl.Name, m.Name,
				side(c.parent), side(c.change), c.wins, c.pairs, c.verdict)
		}
		if n < minPairsForGain {
			fmt.Fprintf(w, "%-12s %d pairs: fewer than %d, so no gain can be claimed\n", wl.Name, n, minPairsForGain)
		}
	}
	return nil
}
