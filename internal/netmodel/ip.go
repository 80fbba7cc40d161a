// Package netmodel provides the low-level network value types used across
// offnetscope: IPv4 addresses, CIDR prefixes, bogon classification, a
// longest-prefix-match radix trie, and an open-addressed set of 32-bit
// keys for month-sized sets of addresses and AS numbers.
//
// IPv4 addresses are represented as uint32 in host order so the simulator
// can iterate over millions of addresses without allocation. The types are
// deliberately small value types; all of them are safe to copy and to use
// as map keys.
package netmodel

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order. The zero value is 0.0.0.0.
type IP uint32

// MakeIP assembles an IP from its four dotted-quad octets.
func MakeIP(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseIP parses a dotted-quad IPv4 address: exactly four octets, each
// one to three ASCII digits without a sign, in 0-255, with no leading
// zero — the addresses net/netip.ParseAddr reads as IPv4.
func ParseIP(s string) (IP, error) { return parseIP(s) }

// ParseIPBytes is ParseIP for an address held in bytes, such as a
// decoder's buffer: it allocates only to report an error.
func ParseIPBytes(b []byte) (IP, error) { return parseIP(b) }

// parseIP is the one digit loop behind ParseIP and ParseIPBytes. It
// checks the octets in order, so the first bad one names the error.
func parseIP[S string | []byte](s S) (IP, error) {
	var ip uint32
	i := 0
	for octet := 0; octet < 4; octet++ {
		end := len(s)
		if octet < 3 {
			end = i
			for end < len(s) && s[end] != '.' {
				end++
			}
			if end == len(s) {
				return 0, fmt.Errorf("netmodel: invalid IPv4 address %q", string(s))
			}
		}
		if end == i || end-i > 3 {
			return 0, fmt.Errorf("netmodel: invalid IPv4 address %q", string(s))
		}
		n := uint32(0)
		for j := i; j < end; j++ {
			d := uint32(s[j] - '0')
			if d > 9 {
				return 0, fmt.Errorf("netmodel: invalid IPv4 address %q", string(s))
			}
			n = n*10 + d
		}
		if n > 255 {
			return 0, fmt.Errorf("netmodel: invalid IPv4 address %q", string(s))
		}
		// Reject leading zeros such as "01" which are ambiguous (octal in
		// some legacy parsers).
		if end-i > 1 && s[i] == '0' {
			return 0, fmt.Errorf("netmodel: invalid IPv4 address %q (leading zero)", string(s))
		}
		ip = ip<<8 | n
		i = end + 1
	}
	return IP(ip), nil
}

// MustParseIP is ParseIP for static initialisers; it panics on error.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String renders the address in dotted-quad notation.
func (ip IP) String() string {
	var b [15]byte
	out := strconv.AppendUint(b[:0], uint64(ip>>24), 10)
	out = append(out, '.')
	out = strconv.AppendUint(out, uint64(ip>>16&0xff), 10)
	out = append(out, '.')
	out = strconv.AppendUint(out, uint64(ip>>8&0xff), 10)
	out = append(out, '.')
	out = strconv.AppendUint(out, uint64(ip&0xff), 10)
	return string(out)
}

// Prefix is an IPv4 CIDR prefix. Bits beyond Len are zero by construction
// for prefixes produced by MakePrefix/ParsePrefix; Canonical() enforces it.
type Prefix struct {
	Addr IP
	Len  uint8
}

// MakePrefix builds a canonical prefix, masking host bits off addr.
func MakePrefix(addr IP, length int) Prefix {
	if length < 0 {
		length = 0
	}
	if length > 32 {
		length = 32
	}
	return Prefix{Addr: addr & Mask(length), Len: uint8(length)}
}

// ParsePrefix parses "a.b.c.d/len" into a canonical Prefix.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netmodel: invalid prefix %q: missing '/'", s)
	}
	ip, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	n, err := strconv.Atoi(s[slash+1:])
	if err != nil || n < 0 || n > 32 {
		return Prefix{}, fmt.Errorf("netmodel: invalid prefix length in %q", s)
	}
	return MakePrefix(ip, n), nil
}

// MustParsePrefix is ParsePrefix for static initialisers; it panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask returns the network mask for a prefix length.
func Mask(length int) IP {
	if length <= 0 {
		return 0
	}
	if length >= 32 {
		return ^IP(0)
	}
	return ^IP(0) << (32 - length)
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP) bool {
	return ip&Mask(int(p.Len)) == p.Addr
}

// Overlaps reports whether two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.Len <= q.Len {
		return p.Contains(q.Addr)
	}
	return q.Contains(p.Addr)
}

// NumAddrs returns the number of addresses covered by the prefix.
func (p Prefix) NumAddrs() uint64 {
	return 1 << (32 - p.Len)
}

// First returns the first (network) address of the prefix.
func (p Prefix) First() IP { return p.Addr }

// Last returns the last (broadcast) address of the prefix.
func (p Prefix) Last() IP {
	return p.Addr | ^Mask(int(p.Len))
}

// Canonical returns the prefix with host bits masked off.
func (p Prefix) Canonical() Prefix {
	return Prefix{Addr: p.Addr & Mask(int(p.Len)), Len: p.Len}
}

// IsCanonical reports whether no host bits are set.
func (p Prefix) IsCanonical() bool {
	return p.Addr == p.Addr&Mask(int(p.Len))
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return p.Addr.String() + "/" + strconv.Itoa(int(p.Len))
}

// bogons is the IANA special-purpose IPv4 registry subset the paper's
// IP-to-AS pipeline filters out (§A.1).
var bogons = []Prefix{
	MustParsePrefix("0.0.0.0/8"),
	MustParsePrefix("10.0.0.0/8"),
	MustParsePrefix("100.64.0.0/10"),
	MustParsePrefix("127.0.0.0/8"),
	MustParsePrefix("169.254.0.0/16"),
	MustParsePrefix("172.16.0.0/12"),
	MustParsePrefix("192.0.0.0/24"),
	MustParsePrefix("192.0.2.0/24"),
	MustParsePrefix("192.88.99.0/24"),
	MustParsePrefix("192.168.0.0/16"),
	MustParsePrefix("198.18.0.0/15"),
	MustParsePrefix("198.51.100.0/24"),
	MustParsePrefix("203.0.113.0/24"),
	MustParsePrefix("224.0.0.0/4"),
	MustParsePrefix("240.0.0.0/4"),
}

// IsBogon reports whether the address falls inside an IANA special-purpose
// (non publicly routable) range.
func IsBogon(ip IP) bool {
	for _, p := range bogons {
		if p.Contains(ip) {
			return true
		}
	}
	return false
}

// IsBogonPrefix reports whether the prefix overlaps any special-purpose
// range. BGP announcements for such prefixes are dropped before IP-to-AS
// mapping, mirroring the paper's appendix A.1.
func IsBogonPrefix(p Prefix) bool {
	for _, b := range bogons {
		if p.Overlaps(b) {
			return true
		}
	}
	return false
}

// Bogons returns a copy of the special-purpose prefix list, primarily for
// tests and documentation.
func Bogons() []Prefix {
	out := make([]Prefix, len(bogons))
	copy(out, bogons)
	return out
}
