package corpus

import (
	"errors"
	"fmt"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"offnetscope/internal/hg"
)

// maxDepth is encoding/json's nesting limit: objects and arrays may nest
// this deep, and one level more is a syntax error.
const maxDepth = 10000

// wireDecoder decodes the NDJSON lines of one corpus file into
// wireCertRecord and wireHeaderRecord values in a single pass, without
// reflection. Its contract is encoding/json's for these two types: a
// line encoding/json rejects is rejected, and an accepted line decodes
// to the same field values, nil and empty slices included — keys match
// exactly or case-insensitively as encoding/json folds them, unknown
// fields of any shape are skipped, null leaves a field untouched (a
// slice becomes nil), and a repeated key decodes into the existing
// value in place. TestWireDecoderMatchesEncodingJSON and FuzzWireDecode
// pin it against encoding/json, which the corpus writer still uses.
//
// Syntax is checked as the line is parsed. A string that repeats within
// a file read is looked up by its bytes in strs and copied only the
// first time the read sees it; a certificate's subject CN and its
// dNSNames, which seldom repeat, are copied outright. The record's IP
// is never a string: its bytes are kept in ip, reused from record to
// record, for netmodel.ParseIPBytes.
type wireDecoder struct {
	data  []byte // the line being decoded
	off   int    // read position in data
	depth int    // objects and arrays open at off
	strs  strTable
	buf   []byte // unquoted bytes of the last string that needed unquoting
	ip    []byte // the record's ip value, as the last decode left it

	// The record slices, decoded into storage reused from record to
	// record.
	chain   list[wireCert]
	headers list[hg.Header]
}

// decodeCert decodes one certs.ndjson.gz line, leaving the record's IP
// in d.ip. The chain is a view of the decoder's storage, valid until the
// next decode.
func (d *wireDecoder) decodeCert(line []byte) ([]wireCert, error) {
	return decodeRecord(d, line, "chain", &d.chain, func(c *wireCert) error { return d.cert(c, nil) }, nil)
}

// decodeHeader decodes one header-file line, leaving the record's IP in
// d.ip. The headers are a view of the decoder's storage, valid until the
// next decode. With walk set, the lists of a line walk selects are
// checked but not stored, as record has it.
func (d *wireDecoder) decodeHeader(line []byte, walk func(ip []byte) bool) ([]hg.Header, error) {
	return decodeRecord(d, line, "headers", &d.headers, d.header, walk)
}

// decodeRecord decodes a line holding a record object, or null: its IP
// into d.ip and the list under listKey, decoded into l unless walk
// selects the line, which leaves the list nil.
func decodeRecord[T any](d *wireDecoder, line []byte, listKey string, l *list[T], elem func(*T) error, walk func(ip []byte) bool) ([]T, error) {
	l.reset()
	err := d.record(line, listKey, walk, func(walking bool) error {
		if walking {
			return decodeList(d, nil, elem)
		}
		return decodeList(d, l, elem)
	})
	if err != nil {
		return nil, err
	}
	return l.value(), nil
}

// errIPAfterWalk stops a decode at an ip key after a walked list: the
// key may name an IP whose lists must be built, so the line is decoded
// again without walking. It never leaves headerDecoder.
var errIPAfterWalk = errors.New("ip key after a walked list")

// record decodes a line holding a record object, or null: it leaves the
// record's IP in d.ip (empty before any ip key, and null leaves it as
// it was), and list decodes the value of each listKey key, with the
// decoder at it. walk, when set, is asked at the first listKey key about
// the IP decoded so far. If it answers true, list is told to walk that
// value and every later one, checking each exactly as a decode would
// but storing nothing, and an ip key after them stops the decode with
// errIPAfterWalk.
func (d *wireDecoder) record(line []byte, listKey string, walk func(ip []byte) bool, list func(walking bool) error) error {
	lists, walking := 0, false
	d.data, d.off, d.depth = line, 0, 0
	d.ip = d.ip[:0]
	err := d.object(func(key []byte) error {
		switch field(key, "ip", listKey) {
		case "ip":
			if walking {
				return errIPAfterWalk
			}
			b, ok, err := d.stringBytes()
			if ok {
				d.ip = append(d.ip[:0], b...)
			}
			return err
		case listKey:
			if lists++; lists == 1 && walk != nil {
				walking = walk(d.ip)
			}
			return list(walking)
		}
		return d.skip()
	})
	if err != nil {
		return err
	}
	d.next()
	if d.off < len(d.data) {
		return d.syntaxError("after top-level value")
	}
	return nil
}

// certFields are wireCert's JSON field names.
var certFields = []string{
	"serial", "subject_org", "subject_cn", "issuer_org", "issuer_cn", "dns_names",
	"not_before", "not_after", "is_ca", "key", "signed_by", "forged",
}

// errOrgAfterWalk stops a leaf's decode at a subject_org key after
// walked names: the key may name an organization whose names must be
// built, so the line is decoded again without walking. It never leaves
// certDecoder.
var errOrgAfterWalk = errors.New("subject_org key after walked names")

// cert decodes a certificate object, or null, into c. names, when set,
// is asked at the first subject_cn or dns_names key about the subject
// organization decoded so far ("" before any subject_org key). If it
// answers false, that value and every later subject_cn and dns_names
// value are walked — checked exactly as a decode would, storing nothing,
// so c keeps an empty CN and nil dNSNames — and a subject_org key after
// them stops the decode with errOrgAfterWalk.
func (d *wireDecoder) cert(c *wireCert, names func(org string) bool) error {
	asked, walking := false, false
	return d.object(func(key []byte) error {
		switch f := field(key, certFields...); f {
		case "serial":
			return d.uint64Value(&c.Serial)
		case "subject_org":
			if walking {
				return errOrgAfterWalk
			}
			return d.stringValue(&c.SubjectOrg)
		case "subject_cn", "dns_names":
			if !asked && names != nil {
				asked, walking = true, !names(c.SubjectOrg)
			}
			cn, dnsNames := &c.SubjectCN, &c.DNSNames
			if walking {
				cn, dnsNames = nil, nil
			}
			if f == "subject_cn" {
				return d.copyValue(cn)
			}
			return decodeSlice(d, dnsNames, d.copyValue)
		case "issuer_org":
			return d.stringValue(&c.IssuerOrg)
		case "issuer_cn":
			return d.stringValue(&c.IssuerCN)
		case "not_before":
			return d.int64Value(&c.NotBefore)
		case "not_after":
			return d.int64Value(&c.NotAfter)
		case "is_ca":
			return d.boolValue(&c.IsCA)
		case "key":
			return d.uint64Value(&c.Key)
		case "signed_by":
			return d.uint64Value(&c.SignedBy)
		case "forged":
			return d.boolValue(&c.Forged)
		}
		return d.skip()
	})
}

// header decodes a header object, or null, into h; a nil h checks the
// value and stores nothing.
func (d *wireDecoder) header(h *hg.Header) error {
	var name, value *string
	if h != nil {
		name, value = &h.Name, &h.Value
	}
	return d.object(func(key []byte) error {
		switch field(key, "Name", "Value") {
		case "Name":
			return d.stringValue(name)
		case "Value":
			return d.stringValue(value)
		}
		return d.skip()
	})
}

// field returns the field name key selects, the way encoding/json picks
// a struct field: an exact match, else a case-insensitive one; "" for an
// unknown key. The names must differ under case folding.
func field(key []byte, names ...string) string {
	for _, name := range names {
		if string(key) == name {
			return name
		}
	}
	for _, name := range names {
		if foldEqual(key, name) {
			return name
		}
	}
	return ""
}

// foldEqual reports whether key folds to the same bytes as name, an
// ASCII field name, under encoding/json's key folding: ASCII letters to
// upper case and every other rune to the smallest rune of its simple
// case-folding orbit, so the Kelvin sign K matches k and the long s ſ
// matches s.
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		r, n := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(key[i:])
			r = foldRune(r)
		}
		i += n
		if j == len(name) || upper(r) != upper(rune(name[j])) {
			return false
		}
	}
	return j == len(name)
}

// foldRune returns the smallest rune of r's simple case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

func upper(r rune) rune {
	if 'a' <= r && r <= 'z' {
		return r - ('a' - 'A')
	}
	return r
}

// object decodes the object or null at the read position, calling member
// for each key with the decoder at the key's value. null decodes to
// nothing, as encoding/json leaves a struct untouched.
func (d *wireDecoder) object(member func(key []byte) error) error {
	switch d.next() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("object")
	}
	if err := d.open(); err != nil {
		return err
	}
	for n := 0; ; n++ {
		c := d.next()
		if c == '}' {
			break
		}
		if n > 0 {
			if c != ',' {
				return d.syntaxError("after object key:value pair")
			}
			d.off++
			c = d.next()
		}
		if c != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		key, err := d.quoted()
		if err != nil {
			return err
		}
		if d.next() != ':' {
			return d.syntaxError("after object key")
		}
		d.off++
		if err := member(key); err != nil {
			return err
		}
	}
	d.close()
	return nil
}

// decodeSlice decodes the array or null at the read position into *s,
// growing and truncating the slice in place as encoding/json does: null
// makes it nil, [] a non-nil empty slice, and an element within the
// capacity of an earlier occurrence of the key is decoded into again,
// not zeroed. A nil s walks the value: it is checked as it would be
// decoded, with elem given nil for each element, and nothing is stored.
func decodeSlice[T any](d *wireDecoder, s *[]T, elem func(*T) error) error {
	switch d.next() {
	case 'n':
		if s != nil {
			*s = nil
		}
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("array")
	}
	if s == nil {
		_, err := d.array(func(int) error { return elem(nil) })
		return err
	}
	v := *s
	n, err := d.array(func(i int) error {
		// reflect.Value.Grow and SetLen, as encoding/json extends a slice.
		if i == cap(v) {
			var zero T
			v = append(v, zero)
		} else if i >= len(v) {
			v = v[:i+1]
		}
		return elem(&v[i])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		v = []T{}
	}
	*s = v[:n]
	return nil
}

// list is a slice field decoded into storage reused from record to
// record. encoding/json decodes a repeated key into the slice it already
// holds: elements a shorter repeat truncated away keep their values and
// are decoded into again by a longer one, while elements past every
// occurrence since the field was last null or [] start zero. A list
// keeps exactly that: elems holds the elements reached since the last
// reset, and elems[:n] is the field's value.
type list[T any] struct {
	elems []T
	n     int
	set   bool // false: the field is nil
}

func (l *list[T]) reset() { l.elems, l.n, l.set = l.elems[:0], 0, false }

// value returns the field as encoding/json would hold it.
func (l *list[T]) value() []T {
	switch {
	case !l.set:
		return nil
	case l.n == 0:
		return []T{}
	}
	return l.elems[:l.n]
}

// decodeList is decodeSlice for a list. A nil l walks the value: it is
// checked as it would be decoded, with elem given nil for each element,
// and nothing is stored.
func decodeList[T any](d *wireDecoder, l *list[T], elem func(*T) error) error {
	switch d.next() {
	case 'n':
		if l != nil {
			l.reset()
		}
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("array")
	}
	n, err := d.array(func(i int) error {
		if l == nil {
			return elem(nil)
		}
		if i == len(l.elems) {
			var zero T
			l.elems = append(l.elems, zero)
		}
		return elem(&l.elems[i])
	})
	if err != nil || l == nil {
		return err
	}
	if n == 0 {
		l.reset()
	}
	l.n, l.set = n, true
	return nil
}

// array walks the array at the read position, calling elem with the
// index of each element and the decoder at it, and returns the number of
// elements.
func (d *wireDecoder) array(elem func(i int) error) (int, error) {
	if err := d.open(); err != nil {
		return 0, err
	}
	n := 0
	for ; ; n++ {
		c := d.next()
		if c == ']' {
			break
		}
		if n > 0 {
			if c != ',' {
				return 0, d.syntaxError("after array element")
			}
			d.off++
		}
		if err := elem(n); err != nil {
			return 0, err
		}
	}
	d.close()
	return n, nil
}

// open consumes the '{' or '[' at the read position.
func (d *wireDecoder) open() error {
	if d.depth++; d.depth > maxDepth {
		return d.syntaxError("exceeded max depth")
	}
	d.off++
	return nil
}

// close consumes the '}' or ']' at the read position.
func (d *wireDecoder) close() {
	d.off++
	d.depth--
}

// copyValue decodes a string field that seldom repeats within a read —
// a certificate's subject CN, a dNSName — into a copy of its own:
// interning it would cost a table probe and entry for nearly every one.
func (d *wireDecoder) copyValue(dst *string) error { return d.decodeString(dst, nil) }

// stringValue decodes a string field, interned in the read's table.
func (d *wireDecoder) stringValue(dst *string) error { return d.decodeString(dst, d.strs) }

// decodeString decodes a string into *dst through strs; null leaves *dst
// untouched, and a nil dst checks the value and stores nothing.
func (d *wireDecoder) decodeString(dst *string, strs strTable) error {
	b, ok, err := d.stringBytes()
	if ok && dst != nil {
		*dst = strs.intern(b)
	}
	return err
}

// stringBytes decodes the string or null at the read position: ok
// reports a string, whose unquoted bytes b are valid until the next
// string is decoded.
func (d *wireDecoder) stringBytes() (b []byte, ok bool, err error) {
	switch d.next() {
	case 'n':
		return nil, false, d.literal("null")
	case '"':
	default:
		return nil, false, d.mismatch("string")
	}
	b, err = d.quoted()
	return b, err == nil, err
}

func (d *wireDecoder) boolValue(dst *bool) error {
	switch d.next() {
	case 'n':
		return d.literal("null")
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	}
	return d.mismatch("bool")
}

// uint64Value decodes an unsigned integer field: like
// strconv.ParseUint, which encoding/json uses, it rejects a sign, a
// fraction, an exponent and values above the range.
func (d *wireDecoder) uint64Value(dst *uint64) error {
	num, err := d.number("uint64")
	if err != nil || num == nil {
		return err
	}
	n, ok := parseUint(num)
	if !ok {
		return d.typeError(d.off-len(num), "number "+string(num), "uint64")
	}
	*dst = n
	return nil
}

// int64Value decodes a signed integer field, as strconv.ParseInt would.
func (d *wireDecoder) int64Value(dst *int64) error {
	num, err := d.number("int64")
	if err != nil || num == nil {
		return err
	}
	neg := num[0] == '-'
	abs := num
	if neg {
		abs = num[1:]
	}
	n, ok := parseUint(abs)
	switch {
	case !ok, neg && n > 1<<63, !neg && n > 1<<63-1:
		return d.typeError(d.off-len(num), "number "+string(num), "int64")
	case neg:
		*dst = -int64(n)
	default:
		*dst = int64(n)
	}
	return nil
}

// parseUint parses a JSON number that must be a plain decimal integer
// within uint64. Only a twentieth digit can overflow.
func parseUint(num []byte) (uint64, bool) {
	if len(num) == 0 || len(num) > 20 {
		return 0, false
	}
	var n uint64
	for i, c := range num {
		d := uint64(c - '0')
		if d > 9 || i == 19 && n > (1<<64-1-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// number scans the JSON number at the read position and returns its
// bytes; null returns nil bytes and leaves the field untouched, and any
// other value is a type error against want.
func (d *wireDecoder) number(want string) ([]byte, error) {
	switch c := d.next(); {
	case c == 'n':
		return nil, d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return nil, d.mismatch(want)
	}
	data, start := d.data, d.off
	i := start
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i+1)
	default:
		d.off = i
		return nil, d.syntaxError("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		if i++; i == len(data) || data[i] < '0' || data[i] > '9' {
			d.off = i
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
		i = digits(data, i)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i == len(data) || data[i] < '0' || data[i] > '9' {
			d.off = i
			return nil, d.syntaxError("in exponent of numeric literal")
		}
		i = digits(data, i)
	}
	d.off = i
	return data[start:i], nil
}

func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// literal consumes the literal lit (true, false or null), whose first
// byte is at the read position.
func (d *wireDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.off == len(d.data) || d.data[d.off] != lit[i] {
			return d.syntaxError("in literal " + lit)
		}
		d.off++
	}
	return nil
}

// skip consumes the value at the read position, checking its syntax.
func (d *wireDecoder) skip() error {
	switch c := d.next(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		_, err := d.array(func(int) error { return d.skip() })
		return err
	case c == '"':
		_, err := d.quoted()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number("")
		return err
	}
	return d.syntaxError("looking for beginning of value")
}

// next skips JSON white space and returns the byte at the read position,
// or 0 at the end of the line.
func (d *wireDecoder) next() byte {
	for ; d.off < len(d.data); d.off++ {
		if c := d.data[d.off]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// quoted consumes the string at the read position and returns its
// unquoted bytes, valid until the next call: a slice of the line when
// the string needs no unquoting, of d.buf otherwise.
func (d *wireDecoder) quoted() ([]byte, error) {
	data := d.data
	start := d.off + 1
	i := start
	for i < len(data) && plainByte[data[i]] {
		i++
	}
	if i < len(data) && data[i] == '"' {
		d.off = i + 1
		return data[start:i], nil
	}
	for ; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			if s := data[start:i]; utf8.Valid(s) {
				d.off = i + 1
				return s, nil
			}
			return d.unquote(start)
		case c == '\\':
			return d.unquote(start)
		case c < ' ':
			d.off = i
			return nil, d.syntaxError("in string literal")
		}
	}
	d.off = len(data)
	return nil, d.syntaxError("in string literal")
}

// plainByte marks the bytes a string holds as they are, which is most of
// them: ASCII other than control characters, the quote and the
// backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote is quoted's slow path for a string holding escapes or invalid
// UTF-8: it decodes escapes, joins UTF-16 surrogate pairs, and turns
// invalid UTF-8 and lone surrogates into U+FFFD, as encoding/json does.
func (d *wireDecoder) unquote(start int) ([]byte, error) {
	data := d.data
	b := d.buf[:0]
	for i := start; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			d.off, d.buf = i+1, b
			return b, nil
		case c == '\\':
			if i+1 == len(data) {
				d.off = len(data)
				return nil, d.syntaxError("in string escape code")
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, ok := hex4(data[i+2:])
				if !ok {
					d.off = i + 2 + hexLen(data[i+2:])
					return nil, d.syntaxError("in \\u hexadecimal character escape")
				}
				i += 6
				// A surrogate joins a \u escape of its pair right after
				// it; otherwise it decodes to U+FFFD.
				if utf16.IsSurrogate(r) {
					r2 := unicode.ReplacementChar
					if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
						if lo, ok := hex4(data[i+2:]); ok {
							r2 = lo
						}
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						i += 6
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off = i + 1
				return nil, d.syntaxError("in string escape code")
			}
			i += 2
		case c < ' ':
			d.off = i
			return nil, d.syntaxError("in string literal")
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(data[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	d.off, d.buf = len(data), b
	return nil, d.syntaxError("in string literal")
}

// hex4 decodes the four hex digits a \u escape must start with.
func hex4(s []byte) (rune, bool) {
	if hexLen(s) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// hexLen counts the hex digits s starts with, up to four.
func hexLen(s []byte) int {
	n := 0
	for n < 4 && n < len(s) {
		switch c := s[n]; {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'f', 'A' <= c && c <= 'F':
			n++
		default:
			return n
		}
	}
	return n
}

// mismatch reports a value of the wrong JSON type for the field: a type
// error if a value starts at the read position, a syntax error if not.
func (d *wireDecoder) mismatch(want string) error {
	var got string
	switch c := d.next(); {
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == '"':
		got = "string"
	case c == 't' || c == 'f':
		got = "bool"
	case c == '-' || '0' <= c && c <= '9':
		got = "number"
	default:
		return d.syntaxError("looking for beginning of value")
	}
	return d.typeError(d.off, got, want)
}

func (d *wireDecoder) typeError(off int, got, want string) error {
	return badRecordAt("json", off, fmt.Errorf("cannot decode JSON %s into %s", got, want))
}

// syntaxError reports invalid JSON at the read position.
func (d *wireDecoder) syntaxError(context string) error {
	if d.off >= len(d.data) {
		return badRecordAt("json", d.off, errors.New("unexpected end of JSON input"))
	}
	return badRecordAt("json", d.off, fmt.Errorf("invalid character %q %s", d.data[d.off], context))
}
