package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRe = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestSchema checks BENCHMARK.json's shape and that it declares exactly
// the metrics and workloads this program reports.
func TestSchema(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]json.RawMessage) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		return ks
	}
	if got, want := keys(top), []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(got, want) {
		t.Fatalf("top-level keys %v, want %v", got, want)
	}
	entries := func(key string, want ...string) []map[string]json.RawMessage {
		var list []map[string]json.RawMessage
		if err := json.Unmarshal(top[key], &list); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		slices.Sort(want)
		for i, e := range list {
			if got := keys(e); !slices.Equal(got, want) {
				t.Errorf("%s[%d] has keys %v, want %v", key, i, got, want)
			}
		}
		return list
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds json.Number `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	entries("workloads", "name", "why")
	entries("end_to_end", "name", "unit", "better", "bound")
	entries("per_layer", "name", "unit", "better")

	if n, err := b.RunSeconds.Int64(); err != nil || n < 1 || n > 60 {
		t.Errorf("run_seconds %s, want a whole number in 1..60", b.RunSeconds)
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	for _, arg := range b.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q", arg)
		}
		if strings.Contains(arg, "/") && !slices.ContainsFunc(b.Paths, func(p string) bool { return strings.HasPrefix(arg, p+"/") }) {
			t.Errorf("command argument %q names a file outside paths", arg)
		}
	}
	if len(b.Paths) == 0 || len(b.Paths) > 16 {
		t.Errorf("%d paths", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRe.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
		if fi, err := os.Stat(filepath.Join("../..", p)); err != nil || !fi.IsDir() {
			t.Errorf("path %q is not a directory", p)
		}
	}

	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRe.MatchString(n) {
			t.Errorf("name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	var wls []string
	for _, w := range b.Workloads {
		name(w.Name)
		wls = append(wls, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(wls, workloads) {
		t.Errorf("workloads %v, program runs %v", wls, workloads)
	}

	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	maxBound, setupBound := 0.0, -1.0
	for i, m := range b.EndToEnd {
		name(m.Name)
		if !unitRe.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
		if i >= len(endToEnd) || endToEnd[i] != (metric{Name: m.Name, Unit: m.Unit, Better: m.Better}) {
			t.Errorf("end-to-end %d is %s %s %s in BENCHMARK.json, program reports %v", i, m.Name, m.Unit, m.Better, endToEnd)
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g, want the largest bound %g", setupBound, maxBound)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, program reports %d", len(b.EndToEnd), len(endToEnd))
	}

	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		if !unitRe.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if i < len(perLayer) {
			p := perLayer[i]
			if p.Name != m.Name || p.Unit != m.Unit || p.Better != m.Better {
				t.Errorf("per-layer %d is %s %s %s in BENCHMARK.json, program reports %s %s %s",
					i, m.Name, m.Unit, m.Better, p.Name, p.Unit, p.Better)
			}
		}
	}
	for _, p := range perLayer {
		if !slices.ContainsFunc(endToEnd, func(m metric) bool { return m.Name == p.Moves }) || !slices.Contains(workloads, p.On) {
			t.Errorf("per-layer %s should move %s on %s, which is not declared", p.Name, p.Moves, p.On)
		}
	}
}
