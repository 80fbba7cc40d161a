package core

import (
	"offnetscope/internal/astopo"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
)

// This file holds the per-snapshot half of the longitudinal split: a
// snapshot's §4 inference is independent of every other snapshot, so it
// can run on a worker pool and be checkpointed as a unit. The only
// cross-snapshot state — the Netflix §6.2 memory — is folded afterwards
// by the cheap sequential envelope pass in runner.go, which consumes
// the envelope inputs captured here.

// MemEntry is one Netflix memory fact: an IP that served a confirmed
// (or expired) Netflix certificate, and the ASes it mapped to at the
// time it was first seen.
type MemEntry struct {
	IP   netmodel.IP
	ASNs []astopo.ASN
}

// EnvelopeValues are the three Netflix series values of Fig 3 at one
// snapshot: the straight §4 inference, the with-expired variant, and
// the non-TLS restoration variant.
type EnvelopeValues struct {
	Initial     int `json:"initial"`
	WithExpired int `json:"with_expired"`
	NonTLS      int `json:"non_tls"`
}

// SnapshotInference is one snapshot's complete inference output plus
// the envelope inputs the sequential fold needs, so the fold never has
// to touch the (possibly huge) corpus snapshot or the mapper again.
type SnapshotInference struct {
	Result *Result

	// HTTPOnlyIPs are addresses that answered on port 80 but presented
	// no certificate in this snapshot — the §6.2 non-TLS restoration
	// test set: a remembered Netflix IP found here keeps its AS counted.
	// The envelope fold only probes it, once per remembered IP, so it is
	// a netmodel.Set, which holds no pointers and cannot be iterated:
	// compare two by membership, never by layout.
	HTTPOnlyIPs *netmodel.Set[netmodel.IP]

	// NetflixLookups maps this snapshot's confirmed and expired Netflix
	// IPs (in evidence order, deduplicated) to their origin ASes at scan
	// time — the candidate additions to the cross-snapshot memory.
	NetflixLookups []MemEntry
}

// netflixLookups maps one snapshot's confirmed and expired Netflix IPs
// (in evidence order, deduplicated) to their origin ASes — the memory
// candidates the envelope fold consumes.
func (p *Pipeline) netflixLookups(res *Result, mapper IPMapper) []MemEntry {
	nf := res.PerHG[hg.Netflix]
	seen := make(map[netmodel.IP]struct{}, len(nf.ConfirmedIPList)+len(nf.ExpiredIPs))
	var lookups []MemEntry
	remember := func(ips []netmodel.IP) {
		for _, ip := range ips {
			if _, dup := seen[ip]; dup {
				continue
			}
			seen[ip] = struct{}{}
			lookups = append(lookups, MemEntry{IP: ip, ASNs: mapper.Lookup(ip)})
		}
	}
	remember(nf.ConfirmedIPList)
	remember(nf.ExpiredIPs)
	return lookups
}

// CheckpointData is everything the study needs to skip recomputing one
// snapshot on resume: the full inference result plus the folded
// envelope outputs and the memory delta the snapshot contributed.
// internal/runstate persists it crash-safely.
type CheckpointData struct {
	Result   *Result
	Envelope EnvelopeValues
	MemDelta []MemEntry
}

// envelopeState is the only cross-snapshot study state: the map of IPs
// that ever served a confirmed (or expired) Netflix certificate to the
// ASes they mapped to at the time. It must be folded in snapshot order.
type envelopeState struct {
	memory map[netmodel.IP][]astopo.ASN
}

func newEnvelopeState() *envelopeState {
	return &envelopeState{memory: make(map[netmodel.IP][]astopo.ASN)}
}

// fold consumes one snapshot's inference in study order, returning the
// envelope values and the memory delta this snapshot contributed —
// exactly the per-snapshot facts a checkpoint persists.
func (e *envelopeState) fold(inf *SnapshotInference) (EnvelopeValues, []MemEntry) {
	nf := inf.Result.PerHG[hg.Netflix]
	var v EnvelopeValues
	v.Initial = len(nf.ConfirmedASes)

	withExpired := make(map[astopo.ASN]struct{}, len(nf.ConfirmedASes)+len(nf.ExpiredASes))
	for as := range nf.ConfirmedASes {
		withExpired[as] = struct{}{}
	}
	for as := range nf.ExpiredASes {
		withExpired[as] = struct{}{}
	}
	v.WithExpired = len(withExpired)

	// Non-TLS restoration: remembered Netflix IPs that no longer answer
	// on 443 but still answer on 80 keep their AS counted.
	restored := make(map[astopo.ASN]struct{}, len(withExpired))
	for as := range withExpired {
		restored[as] = struct{}{}
	}
	for ip, asns := range e.memory {
		if !inf.HTTPOnlyIPs.Has(ip) {
			continue
		}
		for _, as := range asns {
			restored[as] = struct{}{}
		}
	}
	v.NonTLS = len(restored)

	// Update the memory with this month's evidence; first sighting wins.
	var delta []MemEntry
	for _, ent := range inf.NetflixLookups {
		if _, known := e.memory[ent.IP]; known {
			continue
		}
		e.memory[ent.IP] = ent.ASNs
		delta = append(delta, ent)
	}
	return v, delta
}

// replay applies a restored checkpoint's stored memory delta without
// recomputation, keeping the fold deterministic across resumes.
func (e *envelopeState) replay(delta []MemEntry) {
	for _, ent := range delta {
		if _, known := e.memory[ent.IP]; !known {
			e.memory[ent.IP] = ent.ASNs
		}
	}
}
