package corpus

import (
	"errors"

	"offnetscope/internal/certmodel"
	"offnetscope/internal/netmodel"
)

// certDecoder decodes the certs.ndjson.gz lines of one file read into
// CertRecords. Every chain element after the leaf goes through an
// issuerMemo, so an intermediate or root the read has already decoded
// costs a map probe and one byte comparison. Leaves decode in full,
// except that with a names predicate set a leaf's subject CN and
// dNSNames are built only when it accepts the leaf's organization, as
// wireDecoder.cert has it, and are walked otherwise. A line whose
// subject_org key comes after walked names decodes again in full, so a
// line's verdict, skip reason, error text and byte offset do not depend
// on the predicate.
type certDecoder struct {
	d       wireDecoder
	w       wireCert        // the chain element being decoded
	chain   certmodel.Chain // the record's chain, reused from record to record
	issuers issuerMemo
	names   func(org string) bool // nil: build every leaf's names
}

// newCertDecoder returns the certs.ndjson.gz line decoder for one file
// read, building the subject CN and dNSNames of the leaves whose
// organization names accepts, or of every leaf when names is nil.
// Repeated strings intern by their raw bytes in a strTable, and
// repeated intermediates and roots in an issuerMemo, both spanning that
// one read.
func newCertDecoder(names func(org string) bool) func([]byte) (CertRecord, error) {
	cd := &certDecoder{
		d:       wireDecoder{strs: make(strTable)},
		issuers: issuerMemo{exact: make(map[string]*certmodel.Certificate), probe: make(map[string][]memoized)},
		names:   names,
	}
	return cd.decode
}

// errRepeatedChain stops a memoized decode at a record's second chain
// key. It never leaves certDecoder.
var errRepeatedChain = errors.New("chain key repeated")

func (cd *certDecoder) decode(line []byte) (CertRecord, error) {
	err := cd.record(line, cd.names)
	if err == errOrgAfterWalk {
		err = cd.record(line, nil)
	}
	if err == errRepeatedChain {
		err = cd.recordInPlace(line)
	}
	if err != nil {
		return CertRecord{}, err
	}
	addr, err := netmodel.ParseIPBytes(cd.d.ip)
	if err != nil {
		return CertRecord{}, badRecord("ip", err)
	}
	return CertRecord{IP: addr, Chain: append(make(certmodel.Chain, 0, len(cd.chain)), cd.chain...)}, nil
}

// record decodes line onto cd.chain through the memo, asking names
// about the leaf's organization, and leaves its IP in cd.d.ip; it stops
// with errRepeatedChain at a second chain key.
func (cd *certDecoder) record(line []byte, names func(string) bool) error {
	cd.chain = cd.chain[:0]
	chains := 0
	return cd.d.record(line, "chain", nil, func(bool) error {
		if chains++; chains > 1 {
			return errRepeatedChain
		}
		return cd.chainValue(names)
	})
}

// recordInPlace decodes line onto cd.chain without the memo, every leaf
// in full. A chain key that occurs again decodes, as encoding/json has
// it, into the elements the earlier occurrences left, and only the
// memo-less decoder keeps those.
func (cd *certDecoder) recordInPlace(line []byte) error {
	chain, err := cd.d.decodeCert(line)
	cd.chain = cd.chain[:0]
	for i := range chain {
		cd.chain = append(cd.chain, fromWireCert(&chain[i]))
	}
	return err
}

// chainValue decodes the chain or null at the read position onto
// cd.chain: the leaf in full but for the names that names declines, each
// later element through the memo.
func (cd *certDecoder) chainValue(names func(string) bool) error {
	d := &cd.d
	switch d.next() {
	case 'n':
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("array")
	}
	_, err := d.array(func(i int) error {
		c, err := cd.element(i, names)
		if err != nil {
			return err
		}
		cd.chain = append(cd.chain, c)
		return nil
	})
	return err
}

// element decodes chain element i at the read position: the leaf in
// full but for the names that names declines; a later element from the
// memo when the line continues with one it holds, else in full and then
// memoized.
func (cd *certDecoder) element(i int, names func(string) bool) (*certmodel.Certificate, error) {
	d := &cd.d
	d.next()
	start := d.off
	if i > 0 {
		if c, n := cd.issuers.lookup(d.data[start:]); c != nil {
			d.off += n
			return c, nil
		}
		names = nil
	}
	cd.w = wireCert{}
	if err := d.cert(&cd.w, names); err != nil {
		return nil, err
	}
	if i == 0 {
		return fromWireCert(&cd.w), nil
	}
	return cd.issuers.add(d.data[start:d.off], &cd.w), nil
}

// issuerMemo maps the raw bytes of each chain element after the leaf
// that one read decoded to the certificate decoded from them.
//
// A hit needs no scan. When the line continues with the bytes of an
// element the read already decoded, those bytes are the same value in
// the same place: a fresh list slot inside the record's first chain key,
// at the same depth. They decode to the same certificate and end on the
// same byte, so skipping them moves no later error. A record whose chain
// key repeats is not decoded through the memo at all.
//
// The probe key is a prefix of the element itself: its bytes up to and
// including the first ',' or '}', at most maxProbeKey of them. An
// element ends in '}', so the key never reaches past it, and an element
// of any length can hit. A key holds at most maxCandidates elements, so
// a probe costs a bounded number of comparisons on any corpus; an
// element the probe does not recognize decodes in full and is then
// looked up by all its bytes, so byte-identical elements always share
// one certificate.
type issuerMemo struct {
	exact map[string]*certmodel.Certificate // element bytes → certificate
	probe map[string][]memoized             // probe key → elements
}

// memoized is one element the memo recognizes.
type memoized struct {
	raw  string
	cert *certmodel.Certificate
}

const (
	maxProbeKey   = 64
	maxCandidates = 4
)

// probeKeyLen returns the length of the probe key of the element b
// starts with.
func probeKeyLen(b []byte) int {
	n := min(len(b), maxProbeKey)
	for i, c := range b[:n] {
		if c == ',' || c == '}' {
			return i + 1
		}
	}
	return n
}

// lookup returns the certificate of the memoized element rest starts
// with and the element's length, or nil.
func (m *issuerMemo) lookup(rest []byte) (*certmodel.Certificate, int) {
	for _, e := range m.probe[string(rest[:probeKeyLen(rest)])] {
		if len(rest) >= len(e.raw) && string(rest[:len(e.raw)]) == e.raw {
			return e.cert, len(e.raw)
		}
	}
	return nil, 0
}

// add returns the certificate for the element raw, just decoded into w:
// the memo's if it holds raw, else a new one it memoizes.
func (m *issuerMemo) add(raw []byte, w *wireCert) *certmodel.Certificate {
	if c, ok := m.exact[string(raw)]; ok {
		return c
	}
	s := string(raw)
	c := fromWireCert(w)
	m.exact[s] = c
	key := s[:probeKeyLen(raw)]
	if cands := m.probe[key]; len(cands) < maxCandidates {
		m.probe[key] = append(cands, memoized{raw: s, cert: c})
	}
	return c
}
