package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"offnetscope/internal/timeline"
)

// The golden study file pins counters and per-hypergiant counts. This
// test pins the rest of a snapshot's Result: IP-list order,
// CertIPGroups, DNSNames, ExpiredIPs/ExpiredASes and OnNetASes. It
// hashes the encoding/json form of Pipeline.Run's Result — JSON sorts
// map keys, so the hash is stable — for both HeaderModes and every
// Disable* option, at a snapshot with HTTP headers only and at the last
// snapshot, which has both. Refresh after an intentional methodology
// change with:
//
//	go test ./internal/core -run TestResultDigests -update
const resultDigestsPath = "testdata/golden/result_digests.json"

// digestOptions are the configurations whose Results are pinned.
var digestOptions = []struct {
	name string
	opts Options
}{
	{"certs-only", Options{HeaderMode: CertsOnly}},
	{"headers-either", Options{HeaderMode: HeadersEither}},
	{"no-chain-validation", Options{HeaderMode: HeadersEither, DisableChainValidation: true}},
	{"no-dnsname-filter", Options{HeaderMode: HeadersEither, DisableDNSNameFilter: true}},
	{"no-cloudflare-filter", Options{HeaderMode: HeadersEither, DisableCloudflareFilter: true}},
	{"no-conflict-priority", Options{HeaderMode: HeadersEither, DisableConflictPriority: true}},
}

// digestSnapshots are 2015-10 (HTTP headers only) and 2021-04.
var digestSnapshots = []timeline.Snapshot{8, lastSnap}

func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func TestResultDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline 12 times")
	}
	got := map[string]string{}
	for _, s := range digestSnapshots {
		snap := rapid7At(t, s)
		for _, c := range digestOptions {
			got[c.name+"/"+s.Label()] = resultDigest(t, testPipeline(c.opts).Run(snap))
		}
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultDigestsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", resultDigestsPath)
		return
	}
	raw, err := os.ReadFile(resultDigestsPath)
	if err != nil {
		t.Fatalf("missing digest file (run with -update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt digest file %s: %v", resultDigestsPath, err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: Result digest %s, want %s", k, got[k], want[k])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the test computes %d", resultDigestsPath, len(want), len(got))
	}
}
