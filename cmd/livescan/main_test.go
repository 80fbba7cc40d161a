package main

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// TestRunVerdicts drives the whole command against the demo farm and
// reads each server's printed verdict, then the funnel counters.
func TestRunVerdicts(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), &out, 8, 0); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	verdicts := map[string]string{}
	counters := map[string]int{}
	for _, line := range strings.Split(out.String(), "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) >= 3 && strings.HasPrefix(fields[1], "AS"):
			verdicts[fields[0]] = strings.Join(fields[2:], " ")
		case len(fields) == 2 && strings.HasPrefix(fields[0], "funnel."):
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				t.Fatalf("counter line %q: %v", line, err)
			}
			counters[fields[0]] = n
		}
	}
	if len(verdicts) != 10 {
		t.Fatalf("got %d server verdicts, want 10:\n%s", len(verdicts), out.String())
	}
	for name, v := range verdicts {
		confirmed := strings.HasPrefix(v, "CONFIRMED off-net")
		switch {
		case strings.Contains(name, "onnet"):
			if !strings.HasPrefix(v, "on-net") {
				t.Errorf("%s: %q, want on-net", name, v)
			}
		case name == "google-impostor" || name == "google-partner" || name == "background":
			if confirmed {
				t.Errorf("%s confirmed as an off-net: %q", name, v)
			}
		default:
			if !confirmed {
				t.Errorf("%s: %q, want a confirmed off-net", name, v)
			}
		}
	}
	if counters["funnel.drop.dnsnames_offnet"] < 1 {
		t.Errorf("funnel.drop.dnsnames_offnet = %d, want at least 1 (the partner)\n%s",
			counters["funnel.drop.dnsnames_offnet"], out.String())
	}
}

// TestRunRejectsReplacedFlagValues: a -concurrency below 1 or a
// negative -rate is an error before any farm starts, not a scan with
// the scanner's defaults; -rate 0 (unlimited) stays valid, as
// TestRunVerdicts shows.
func TestRunRejectsReplacedFlagValues(t *testing.T) {
	for _, tc := range []struct{ concurrency, rate int }{{0, 0}, {-4, 0}, {8, -5}} {
		var out strings.Builder
		if err := run(context.Background(), &out, tc.concurrency, tc.rate); err == nil {
			t.Errorf("run(-concurrency %d -rate %d) accepted:\n%s", tc.concurrency, tc.rate, out.String())
		}
	}
}
