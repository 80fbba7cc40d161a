package core

import (
	"sort"
	"strings"

	"offnetscope/internal/hg"
)

// Header-fingerprint mining (§4.4): from a hypergiant's on-net HTTP(S)
// responses, surface the most frequent header name:value pairs and
// header names after filtering common standard headers. The paper then
// classified these manually into the appendix-A.5 registry; the mining
// step is reproduced here so that classification can be audited
// (TestMiningRecoversTable4 checks that mining recovers Table 4).

// commonHeaderNames are standard headers carried by virtually every
// response; they identify nothing.
var commonHeaderNames = map[string]struct{}{
	"cache-control":     {},
	"content-length":    {},
	"content-type":      {},
	"connection":        {},
	"date":              {},
	"expires":           {},
	"last-modified":     {},
	"etag":              {},
	"vary":              {},
	"accept-ranges":     {},
	"transfer-encoding": {},
	"keep-alive":        {},
	"pragma":            {},
	"age":               {},
	"location":          {},
	"set-cookie":        {},
}

// FingerprintCount is one mined candidate fingerprint with its frequency.
type FingerprintCount struct {
	Name  string
	Value string // empty for name-only candidates
	Count int
}

// MinedFingerprints is the §4.4 mining output for one hypergiant.
type MinedFingerprints struct {
	// TopPairs are the most frequent header name:value pairs (paper:
	// top 50).
	TopPairs []FingerprintCount
	// TopNames are the most frequent header names.
	TopNames []FingerprintCount
}

// MineHeaderFingerprints ranks header name:value pairs and names across
// a hypergiant's on-net responses, dropping common standard headers.
// topK bounds both lists (the paper used 50).
func MineHeaderFingerprints(responses [][]hg.Header, topK int) MinedFingerprints {
	pairCounts := make(map[[2]string]int)
	nameCounts := make(map[string]int)
	for _, headers := range responses {
		for _, h := range headers {
			name := strings.ToLower(h.Name)
			if _, common := commonHeaderNames[name]; common {
				continue
			}
			pairCounts[[2]string{name, h.Value}]++
			nameCounts[name]++
		}
	}
	out := MinedFingerprints{}
	for k, c := range pairCounts {
		out.TopPairs = append(out.TopPairs, FingerprintCount{Name: k[0], Value: k[1], Count: c})
	}
	for n, c := range nameCounts {
		out.TopNames = append(out.TopNames, FingerprintCount{Name: n, Count: c})
	}
	rank := func(xs []FingerprintCount) []FingerprintCount {
		sort.Slice(xs, func(i, j int) bool {
			if xs[i].Count != xs[j].Count {
				return xs[i].Count > xs[j].Count
			}
			if xs[i].Name != xs[j].Name {
				return xs[i].Name < xs[j].Name
			}
			return xs[i].Value < xs[j].Value
		})
		if len(xs) > topK {
			xs = xs[:topK]
		}
		return xs
	}
	out.TopPairs = rank(out.TopPairs)
	out.TopNames = rank(out.TopNames)
	return out
}

// RecoversFingerprint reports whether the mined output contains evidence
// for a curated fingerprint: a top name matching the rule's name (or
// prefix), or a top pair matching name and value (with prefix semantics).
func (m MinedFingerprints) RecoversFingerprint(f hg.HeaderFingerprint) bool {
	for _, p := range m.TopPairs {
		if f.Matches(hg.Header{Name: p.Name, Value: p.Value}) {
			return true
		}
	}
	if f.Value == "" {
		for _, n := range m.TopNames {
			if f.Matches(hg.Header{Name: n.Name}) {
				return true
			}
		}
	}
	return false
}
