package runstate

import (
	"encoding/json"
	"fmt"
	"sort"

	"offnetscope/internal/astopo"
	"offnetscope/internal/certmodel"
	"offnetscope/internal/core"
	"offnetscope/internal/corpus"
	"offnetscope/internal/durable"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/timeline"
)

// Entry wire format, a durable frame:
//
//	magic "offnetCK" | uvarint version | JSON payload | CRC-32 (IEEE, LE)
//
// The CRC covers every preceding byte, so truncation, bit flips, and
// half-written files all fail closed. The payload is JSON rather than a
// packed binary: checkpoints are transient per-run scratch (entries are
// ~tens of KB and rewritten from scratch on any input change), so
// debuggability beats density here. Map-shaped sets are serialized
// sorted and slices verbatim, keeping encode deterministic; consumers
// never depend on map iteration order.

const (
	entryMagic   = "offnetCK"
	entryVersion = 1
	entrySuffix  = ".ckpt"
)

type wireEntry struct {
	Snapshot int                 `json:"snapshot"`
	Result   wireResult          `json:"result"`
	Envelope core.EnvelopeValues `json:"envelope"`
	MemDelta []wireMem           `json:"mem_delta,omitempty"`
}

type wireMem struct {
	IP   uint32   `json:"ip"`
	ASNs []uint32 `json:"asns,omitempty"`
}

type wireResult struct {
	Vendor          string         `json:"vendor"`
	TotalCertIPs    int            `json:"total_cert_ips"`
	TotalCertASes   int            `json:"total_cert_ases"`
	ValidCertIPs    int            `json:"valid_cert_ips"`
	InvalidByReason map[string]int `json:"invalid_by_reason,omitempty"`
	HGOnNetCertIPs  int            `json:"hg_onnet_cert_ips"`
	HGOffNetCertIPs int            `json:"hg_offnet_cert_ips"`
	PerHG           []wireHG       `json:"per_hg"`
}

type wireHG struct {
	HG int `json:"hg"`

	OnNetASes []uint32 `json:"onnet_ases,omitempty"` // verbatim order
	DNSNames  []string `json:"dns_names,omitempty"`  // sorted

	CandidateASes         []uint32 `json:"candidate_ases,omitempty"` // sorted
	ConfirmedASes         []uint32 `json:"confirmed_ases,omitempty"` // sorted
	ConfirmedByEitherASes []uint32 `json:"either_ases,omitempty"`    // sorted
	ConfirmedByBothASes   []uint32 `json:"both_ases,omitempty"`      // sorted
	ExpiredASes           []uint32 `json:"expired_ases,omitempty"`   // sorted
	CandidateIPs          int      `json:"candidate_ips"`
	ConfirmedIPs          int      `json:"confirmed_ips"`
	ConfirmedIPList       []uint32 `json:"confirmed_ip_list,omitempty"` // verbatim order
	CandidateIPList       []uint32 `json:"candidate_ip_list,omitempty"` // verbatim order
	ExpiredIPs            []uint32 `json:"expired_ips,omitempty"`       // verbatim order
	OnNetIPs              int      `json:"onnet_ips"`
	CertIPGroups          []fpSize `json:"cert_ip_groups,omitempty"` // sorted by fingerprint
}

type fpSize struct {
	FP uint64 `json:"fp"`
	N  int    `json:"n"`
}

func encodeEntry(s timeline.Snapshot, ck *core.CheckpointData) ([]byte, error) {
	if ck == nil || ck.Result == nil {
		return nil, fmt.Errorf("runstate: refusing to checkpoint empty snapshot %s", s.Label())
	}
	we := wireEntry{
		Snapshot: int(s),
		Result:   packResult(ck.Result),
		Envelope: ck.Envelope,
	}
	for _, ent := range ck.MemDelta {
		we.MemDelta = append(we.MemDelta, wireMem{IP: uint32(ent.IP), ASNs: asnsOut(ent.ASNs)})
	}
	payload, err := json.Marshal(we)
	if err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	return durable.Seal(append(durable.Start(entryMagic, entryVersion), payload...)), nil
}

func decodeEntry(s timeline.Snapshot, raw []byte) (*core.CheckpointData, error) {
	payload, err := durable.Open(raw, entryMagic, entryVersion)
	if err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	var we wireEntry
	if err := json.Unmarshal(payload, &we); err != nil {
		return nil, fmt.Errorf("runstate: %w", err)
	}
	if we.Snapshot != int(s) {
		return nil, fmt.Errorf("runstate: entry is for snapshot %d, not %d", we.Snapshot, int(s))
	}
	ck := &core.CheckpointData{
		Result:   unpackResult(timeline.Snapshot(we.Snapshot), we.Result),
		Envelope: we.Envelope,
	}
	for _, m := range we.MemDelta {
		ck.MemDelta = append(ck.MemDelta, core.MemEntry{IP: netmodel.IP(m.IP), ASNs: asnsIn(m.ASNs)})
	}
	return ck, nil
}

func packResult(r *core.Result) wireResult {
	wr := wireResult{
		Vendor:          string(r.Vendor),
		TotalCertIPs:    r.TotalCertIPs,
		TotalCertASes:   r.TotalCertASes,
		ValidCertIPs:    r.ValidCertIPs,
		InvalidByReason: r.InvalidByReason,
		HGOnNetCertIPs:  r.HGOnNetCertIPs,
		HGOffNetCertIPs: r.HGOffNetCertIPs,
	}
	ids := make([]int, 0, len(r.PerHG))
	for id := range r.PerHG {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		wr.PerHG = append(wr.PerHG, packHG(r.PerHG[hg.ID(id)]))
	}
	return wr
}

func unpackResult(s timeline.Snapshot, wr wireResult) *core.Result {
	r := &core.Result{
		Vendor:          corpus.Vendor(wr.Vendor),
		Snapshot:        s,
		TotalCertIPs:    wr.TotalCertIPs,
		TotalCertASes:   wr.TotalCertASes,
		ValidCertIPs:    wr.ValidCertIPs,
		InvalidByReason: wr.InvalidByReason,
		HGOnNetCertIPs:  wr.HGOnNetCertIPs,
		HGOffNetCertIPs: wr.HGOffNetCertIPs,
		PerHG:           make(map[hg.ID]*core.HGResult, len(wr.PerHG)),
	}
	if r.InvalidByReason == nil {
		r.InvalidByReason = map[string]int{}
	}
	for _, wh := range wr.PerHG {
		r.PerHG[hg.ID(wh.HG)] = unpackHG(wh)
	}
	return r
}

func packHG(h *core.HGResult) wireHG {
	wh := wireHG{
		HG:                    int(h.HG),
		OnNetASes:             asnsOut(h.OnNetASes),
		DNSNames:              stringsOut(h.DNSNames),
		CandidateASes:         setOut(h.CandidateASes),
		ConfirmedASes:         setOut(h.ConfirmedASes),
		ConfirmedByEitherASes: setOut(h.ConfirmedByEitherASes),
		ConfirmedByBothASes:   setOut(h.ConfirmedByBothASes),
		ExpiredASes:           setOut(h.ExpiredASes),
		CandidateIPs:          h.CandidateIPs,
		ConfirmedIPs:          h.ConfirmedIPs,
		ConfirmedIPList:       ipsOut(h.ConfirmedIPList),
		CandidateIPList:       ipsOut(h.CandidateIPList),
		ExpiredIPs:            ipsOut(h.ExpiredIPs),
		OnNetIPs:              h.OnNetIPs,
	}
	fps := make([]uint64, 0, len(h.CertIPGroups))
	for fp := range h.CertIPGroups {
		fps = append(fps, uint64(fp))
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	for _, fp := range fps {
		wh.CertIPGroups = append(wh.CertIPGroups, fpSize{FP: fp, N: h.CertIPGroups[certmodel.Fingerprint(fp)]})
	}
	return wh
}

func unpackHG(wh wireHG) *core.HGResult {
	h := &core.HGResult{
		HG:                    hg.ID(wh.HG),
		OnNetASes:             asnsIn(wh.OnNetASes),
		DNSNames:              stringsIn(wh.DNSNames),
		CandidateASes:         setIn(wh.CandidateASes),
		ConfirmedASes:         setIn(wh.ConfirmedASes),
		ConfirmedByEitherASes: setIn(wh.ConfirmedByEitherASes),
		ConfirmedByBothASes:   setIn(wh.ConfirmedByBothASes),
		ExpiredASes:           setIn(wh.ExpiredASes),
		CandidateIPs:          wh.CandidateIPs,
		ConfirmedIPs:          wh.ConfirmedIPs,
		ConfirmedIPList:       ipsIn(wh.ConfirmedIPList),
		CandidateIPList:       ipsIn(wh.CandidateIPList),
		ExpiredIPs:            ipsIn(wh.ExpiredIPs),
		OnNetIPs:              wh.OnNetIPs,
		CertIPGroups:          make(map[certmodel.Fingerprint]int, len(wh.CertIPGroups)),
	}
	for _, g := range wh.CertIPGroups {
		h.CertIPGroups[certmodel.Fingerprint(g.FP)] = g.N
	}
	return h
}

func asnsOut(in []astopo.ASN) []uint32 {
	out := make([]uint32, len(in))
	for i, as := range in {
		out[i] = uint32(as)
	}
	return out
}

func asnsIn(in []uint32) []astopo.ASN {
	if in == nil {
		return nil
	}
	out := make([]astopo.ASN, len(in))
	for i, as := range in {
		out[i] = astopo.ASN(as)
	}
	return out
}

func ipsOut(in []netmodel.IP) []uint32 {
	out := make([]uint32, len(in))
	for i, ip := range in {
		out[i] = uint32(ip)
	}
	return out
}

func ipsIn(in []uint32) []netmodel.IP {
	if in == nil {
		return nil
	}
	out := make([]netmodel.IP, len(in))
	for i, ip := range in {
		out[i] = netmodel.IP(ip)
	}
	return out
}

func setOut(in map[astopo.ASN]struct{}) []uint32 {
	out := make([]uint32, 0, len(in))
	for as := range in {
		out = append(out, uint32(as))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func setIn(in []uint32) map[astopo.ASN]struct{} {
	out := make(map[astopo.ASN]struct{}, len(in))
	for _, as := range in {
		out[astopo.ASN(as)] = struct{}{}
	}
	return out
}

func stringsOut(in map[string]struct{}) []string {
	out := make([]string, 0, len(in))
	for s := range in {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func stringsIn(in []string) map[string]struct{} {
	out := make(map[string]struct{}, len(in))
	for _, s := range in {
		out[s] = struct{}{}
	}
	return out
}
