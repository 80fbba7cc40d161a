package astopo

import (
	"sort"
	"strings"

	"offnetscope/internal/timeline"
)

// OrgDB is the AS-to-organization registry, the stand-in for the CAIDA
// AS Organizations dataset (§A.2). Organization names change over time
// (e.g. "Google Inc." became "Google LLC" in 2017); the DB keeps the full
// rename history per AS and answers both directions: the organization
// behind an AS at a snapshot, and the ASes whose organization name
// matches a keyword at a snapshot — the reverse mapping used to extract
// hypergiant on-net ASes across the study window.
type OrgDB struct {
	entries map[ASN][]orgEntry
}

type orgEntry struct {
	from timeline.Snapshot
	name string
}

// NewOrgDB returns an empty registry.
func NewOrgDB() *OrgDB {
	return &OrgDB{entries: make(map[ASN][]orgEntry)}
}

// Set records that as belongs to org from snapshot from onward (until a
// later Set overrides it). Calls may arrive in any order.
func (db *OrgDB) Set(as ASN, from timeline.Snapshot, org string) {
	es := db.entries[as]
	for i := range es {
		if es[i].from == from {
			es[i].name = org
			return
		}
	}
	es = append(es, orgEntry{from: from, name: org})
	sort.Slice(es, func(i, j int) bool { return es[i].from < es[j].from })
	db.entries[as] = es
}

// Name returns the organization name of as at snapshot s, or "" if the
// AS has no organization record yet.
func (db *OrgDB) Name(as ASN, s timeline.Snapshot) string {
	var name string
	for _, e := range db.entries[as] {
		if e.from > s {
			break
		}
		name = e.name
	}
	return name
}

// ASesMatching returns, for each keyword, every AS whose organization
// name at snapshot s contains it case-insensitively, sorted — the
// paper's manual "parse organization name literals" step. One sweep
// over the registry lowercases each name once, however many keywords
// it is matched against.
func (db *OrgDB) ASesMatching(keywords []string, s timeline.Snapshot) [][]ASN {
	kws := make([]string, len(keywords))
	for i, kw := range keywords {
		kws[i] = strings.ToLower(kw)
	}
	out := make([][]ASN, len(keywords))
	for as := range db.entries {
		name := strings.ToLower(db.Name(as, s))
		for i, kw := range kws {
			if strings.Contains(name, kw) {
				out[i] = append(out[i], as)
			}
		}
	}
	for _, ases := range out {
		sort.Slice(ases, func(i, j int) bool { return ases[i] < ases[j] })
	}
	return out
}

// NumASes returns the number of ASes with at least one record.
func (db *OrgDB) NumASes() int { return len(db.entries) }
