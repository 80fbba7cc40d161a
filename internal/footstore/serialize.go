package footstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"offnetscope/internal/astopo"
	"offnetscope/internal/durable"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/timeline"
)

// On-disk format (version 1), framed by internal/durable: the magic,
// the version, the sections below, all varint-encoded (encoding/binary
// uvarint), then a CRC-32 (IEEE, little-endian) of every preceding byte
// including the magic.
//
//	"offnetFS"                          8-byte magic
//	version                             uvarint, currently 1
//	snapshot section:
//	  count ≥ 1, then the present snapshot indices — first absolute,
//	  the rest as deltas (strictly increasing)
//	hypergiant section:
//	  count, then per hypergiant (IDs strictly increasing):
//	    id, then for every present snapshot the footprint delta against
//	    the previous present snapshot: added-count + added ASNs
//	    (delta-encoded, strictly increasing), removed-count + removed
//	    ASNs (same encoding; every removal must be present)
//	prefix section:
//	  count, then rows sorted by (address, length): address — first
//	  absolute, the rest as deltas; equal addresses must have strictly
//	  increasing lengths — then the length and the origin ASNs
//	  (count ≥ 1, delta-encoded, strictly increasing)
//	crc32                               4 bytes little-endian
//
// The encoding is canonical: a store always serializes to the same
// bytes, so build → write → read → re-write is byte-identical.

// Version is the current on-disk format version.
const Version = 1

const magic = "offnetFS"

// Encode serializes the store into its canonical binary form.
func (st *Store) Encode() []byte {
	buf := durable.Start(magic, Version)

	// Snapshot section.
	buf = binary.AppendUvarint(buf, uint64(len(st.snaps)))
	prev := uint64(0)
	for i, s := range st.snaps {
		v := uint64(s)
		if i == 0 {
			buf = binary.AppendUvarint(buf, v)
		} else {
			buf = binary.AppendUvarint(buf, v-prev)
		}
		prev = v
	}

	// Hypergiant section: reconstruct the per-snapshot sets from the
	// spans, then emit added/removed deltas between consecutive present
	// snapshots.
	var ids []hg.ID
	for id, spans := range st.spans {
		if len(spans) > 0 {
			ids = append(ids, hg.ID(id))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
		sets := make([][]astopo.ASN, len(st.snaps))
		for _, sp := range st.spans[id] {
			for i := sp.from; i <= sp.to; i++ {
				sets[i] = append(sets[i], sp.as)
			}
		}
		var prevSet []astopo.ASN
		for _, set := range sets {
			sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
			added, removed := diffSorted(prevSet, set)
			buf = appendASNList(buf, added)
			buf = appendASNList(buf, removed)
			prevSet = set
		}
	}

	// Prefix section.
	buf = binary.AppendUvarint(buf, uint64(len(st.prefixes)))
	prevAddr := uint64(0)
	for i := range st.prefixes {
		p := st.prefixes[i].prefix
		addr := uint64(p.Addr)
		if i == 0 {
			buf = binary.AppendUvarint(buf, addr)
		} else {
			buf = binary.AppendUvarint(buf, addr-prevAddr)
		}
		prevAddr = addr
		buf = binary.AppendUvarint(buf, uint64(p.Len))
		buf = appendASNList(buf, st.prefixes[i].asns)
	}

	return durable.Seal(buf)
}

// Save writes the store to path atomically (durable.WriteFile): a
// crash or a failed write leaves the previous file intact, and a reader
// that opens path at any moment sees either the old store or the new
// one, never a torn one.
func (st *Store) Save(path string) error {
	if err := durable.WriteFile(path, st.Encode()); err != nil {
		return fmt.Errorf("footstore: %w", err)
	}
	return nil
}

// ErrCorrupt is durable.ErrCorrupt: every corrupt store, segment or
// manifest matches it via errors.Is, while a missing file or an intact
// file of another version does not.
var ErrCorrupt = durable.ErrCorrupt

// CorruptError is durable.CorruptError, the one corruption type: Open
// and the generation-log readers fill its Path.
type CorruptError = durable.CorruptError

// Open loads a store file written by Save.
func Open(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("footstore: %w", err)
	}
	st, err := Decode(data)
	if err != nil {
		return nil, inFile(err, path)
	}
	return st, nil
}

// inFile attaches path to a decode error: as the Path of the
// *CorruptError inside it, or else as a prefix.
func inFile(err error, path string) error {
	var ce *CorruptError
	if errors.As(err, &ce) {
		ce.Path = path
		return err
	}
	return fmt.Errorf("%s: %w", path, err)
}

// Decode parses the binary format, rejecting corrupt or truncated
// input. It never panics on malformed bytes (see FuzzFootstoreDecode).
func Decode(data []byte) (*Store, error) {
	body, err := durable.Open(data, magic, Version)
	if err != nil {
		return nil, fmt.Errorf("footstore: %w", err)
	}
	d := newDecoder(data, body)

	// Snapshot section.
	snapCount := d.count(1)
	snaps := make([]timeline.Snapshot, 0, snapCount)
	prev := uint64(0)
	for i := 0; i < snapCount && d.err == nil; i++ {
		v := d.uvarint()
		if i > 0 {
			if v == 0 {
				d.fail("snapshots not increasing")
				break
			}
			v += prev
		}
		prev = v
		if v > uint64(timeline.Count()-1) {
			d.fail("snapshot index out of range")
			break
		}
		snaps = append(snaps, timeline.Snapshot(v))
	}

	// Hypergiant section: replay the deltas into per-snapshot sets.
	b := NewBuilder()
	footprints := make([]map[hg.ID][]astopo.ASN, snapCount)
	for i := range footprints {
		footprints[i] = make(map[hg.ID][]astopo.ASN)
	}
	hgCount := d.count(0)
	prevID := uint64(0)
	for h := 0; h < hgCount && d.err == nil; h++ {
		id := d.uvarint()
		if id <= prevID && h > 0 {
			d.fail("hypergiant ids not increasing")
			break
		}
		if id == 0 || id > uint64(hg.Count) {
			d.fail("hypergiant id out of range")
			break
		}
		prevID = id
		cur := make(map[astopo.ASN]struct{})
		for i := 0; i < snapCount && d.err == nil; i++ {
			added := d.asnList()
			removed := d.asnList()
			for _, as := range added {
				if _, dup := cur[as]; dup {
					d.fail("added AS already present")
				}
				cur[as] = struct{}{}
			}
			for _, as := range removed {
				if _, ok := cur[as]; !ok {
					d.fail("removed AS not present")
				}
				delete(cur, as)
			}
			if d.err != nil {
				break
			}
			set := make([]astopo.ASN, 0, len(cur))
			for as := range cur {
				set = append(set, as)
			}
			footprints[i][hg.ID(id)] = set
		}
	}

	// Prefix section.
	prefixCount := d.count(0)
	prevAddr := uint64(0)
	prevLen := uint64(0)
	for i := 0; i < prefixCount && d.err == nil; i++ {
		addr := d.uvarint()
		if i > 0 {
			addr += prevAddr
		}
		length := d.uvarint()
		if addr > math.MaxUint32 || length > 32 {
			d.fail("prefix out of range")
			break
		}
		if i > 0 && addr == prevAddr && length <= prevLen {
			d.fail("prefixes not ordered")
			break
		}
		prevAddr, prevLen = addr, length
		p := netmodel.Prefix{Addr: netmodel.IP(addr), Len: uint8(length)}
		if !p.IsCanonical() {
			d.fail("prefix has host bits set")
			break
		}
		asns := d.asnList()
		if d.err == nil && len(asns) == 0 {
			d.fail("prefix with no origins")
			break
		}
		b.AddPrefix(p, asns)
	}

	if d.err == nil && d.off != len(d.data) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, fmt.Errorf("footstore: %w", d.err)
	}
	for i, s := range snaps {
		if err := b.AddSnapshot(s, footprints[i]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// diffSorted computes next − prev and prev − next over sorted slices.
func diffSorted(prev, next []astopo.ASN) (added, removed []astopo.ASN) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch {
		case prev[i] == next[j]:
			i++
			j++
		case prev[i] < next[j]:
			removed = append(removed, prev[i])
			i++
		default:
			added = append(added, next[j])
			j++
		}
	}
	removed = append(removed, prev[i:]...)
	added = append(added, next[j:]...)
	return added, removed
}

// appendASNList emits a count followed by the sorted ASNs,
// delta-encoded (first absolute, the rest strictly increasing deltas).
func appendASNList(buf []byte, asns []astopo.ASN) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(asns)))
	prev := uint64(0)
	for i, as := range asns {
		v := uint64(as)
		if i == 0 {
			buf = binary.AppendUvarint(buf, v)
		} else {
			buf = binary.AppendUvarint(buf, v-prev)
		}
		prev = v
	}
	return buf
}

// decoder is a bounds-checked cursor over the body bytes; the first
// error sticks.
type decoder struct {
	data []byte
	off  int
	err  error
}

// newDecoder returns a cursor over body, which durable.Open cut out of
// data, that reports offsets into data.
func newDecoder(data, body []byte) *decoder {
	off := cap(data) - cap(body) // body is data[off : off+len(body)]
	return &decoder{data: data[:off+len(body)], off: off}
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = &CorruptError{Offset: d.off, Reason: msg}
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.off += n
	return v
}

// count reads a list length and sanity-checks it against the remaining
// input (every element costs at least one byte), so corrupt counts
// cannot trigger huge allocations.
func (d *decoder) count(min int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v < uint64(min) || v > uint64(len(d.data)-d.off) {
		d.fail("implausible count")
		return 0
	}
	return int(v)
}

// asnList reads a delta-encoded, strictly increasing ASN list.
func (d *decoder) asnList() []astopo.ASN {
	n := d.count(0)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]astopo.ASN, 0, n)
	prev := uint64(0)
	for i := 0; i < n; i++ {
		v := d.uvarint()
		if d.err != nil {
			return nil
		}
		if i > 0 {
			if v == 0 {
				d.fail("ASN list not increasing")
				return nil
			}
			v += prev
		}
		if v > math.MaxUint32 {
			d.fail("ASN out of range")
			return nil
		}
		prev = v
		out = append(out, astopo.ASN(v))
	}
	return out
}
