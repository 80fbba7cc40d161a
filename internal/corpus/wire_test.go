package corpus

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"offnetscope/internal/certmodel"
	"offnetscope/internal/netmodel"
)

// The encoding/json decoders the corpus read path used before
// wireDecoder, kept as the reference it must match line for line. The
// reference decodes every certificate afresh: which certificates a read
// shares is TestReadInternsIntermediates' concern, not a value.

func referenceCertDecoder() func([]byte) (CertRecord, error) {
	return func(line []byte) (CertRecord, error) {
		var w wireCertRecord
		if err := json.Unmarshal(line, &w); err != nil {
			return CertRecord{}, badRecord("json", err)
		}
		ip, err := netmodel.ParseIP(w.IP)
		if err != nil {
			return CertRecord{}, badRecord("ip", err)
		}
		rec := CertRecord{IP: ip, Chain: make(certmodel.Chain, 0, len(w.Chain))}
		for i := range w.Chain {
			rec.Chain = append(rec.Chain, fromWireCert(&w.Chain[i]))
		}
		return rec, nil
	}
}

func referenceHeaderDecoder() func([]byte) (HeaderRecord, error) {
	return func(line []byte) (HeaderRecord, error) {
		var w wireHeaderRecord
		if err := json.Unmarshal(line, &w); err != nil {
			return HeaderRecord{}, badRecord("json", err)
		}
		ip, err := netmodel.ParseIP(w.IP)
		if err != nil {
			return HeaderRecord{}, badRecord("ip", err)
		}
		return HeaderRecord{IP: ip, Headers: w.Headers}, nil
	}
}

// verdict names a line decoder's outcome: "ok", or the skip reason.
func verdict(err error) string {
	if err == nil {
		return "ok"
	}
	return reasonOf(err)
}

// errText is a line decoder's outcome as a strict read reports it: "ok",
// or where in the line it failed and why.
func errText(line []byte, err error) string {
	if err == nil {
		return "ok"
	}
	return errorAt(1, line, err) + ": " + err.Error()
}

// certWire flattens decoded records for comparison: every field the
// wire carries, nil and empty dns_names told apart, without the
// fingerprint cache inside Certificate.
func certWire(r CertRecord) wireCertRecord {
	w := wireCertRecord{IP: r.IP.String(), Chain: []wireCert{}}
	for _, c := range r.Chain {
		w.Chain = append(w.Chain, toWireCert(c))
	}
	return w
}

// wireCheck runs lines through the decoders under test and through the
// references, each keeping its state from line to line as one file read
// does.
type wireCheck struct {
	d                 *wireDecoder
	cert, refCert     func([]byte) (CertRecord, error)
	header, refHeader func([]byte) (HeaderRecord, error)

	// The header decoder with a want set: one whose set is empty, and
	// one whose set line refills with the IP the full decode returns.
	headerNone, headerOwn func([]byte) (HeaderRecord, error)
	own                   *netmodel.Set[netmodel.IP]
}

func newWireCheck() *wireCheck {
	own := &netmodel.Set[netmodel.IP]{}
	return &wireCheck{
		d:          &wireDecoder{strs: make(strTable)},
		cert:       newCertDecoder(),
		refCert:    referenceCertDecoder(),
		header:     newHeaderDecoder(nil),
		refHeader:  referenceHeaderDecoder(),
		headerNone: newHeaderDecoder(&netmodel.Set[netmodel.IP]{}),
		headerOwn:  newHeaderDecoder(own),
		own:        own,
	}
}

// line decodes line with wireDecoder and with encoding/json, as both
// record types, and fails t on any difference: the decoded wire structs,
// the accept/reject verdict, and the corpus records the two line
// decoders build, skip reason included. The certificate line decoder,
// whose issuer memo skips elements the memo-less wireDecoder walks, must
// also fail a line exactly where and as wireDecoder does. The header
// decoder with a want set, which walks the lists of unwanted IPs, must
// give the full decode's verdict, reason, error text and offset, and
// its IP, with nil Headers when the set is empty and the full decode's
// Headers when the set holds that IP.
func (c *wireCheck) line(t *testing.T, line []byte) {
	t.Helper()
	var wantC wireCertRecord
	jerr := json.Unmarshal(line, &wantC)
	gotC, cerr := c.d.decodeCert(line)
	if (jerr == nil) != (cerr == nil) {
		t.Fatalf("cert record %q: encoding/json err %v, wireDecoder err %v", line, jerr, cerr)
	}
	if jerr == nil && !reflect.DeepEqual(wantC, gotC) {
		t.Fatalf("cert record %q:\nencoding/json %#v\nwireDecoder   %#v", line, wantC, gotC)
	}
	var wantH wireHeaderRecord
	jerr = json.Unmarshal(line, &wantH)
	gotH, derr := c.d.decodeHeader(line, nil)
	if (jerr == nil) != (derr == nil) {
		t.Fatalf("header record %q: encoding/json err %v, wireDecoder err %v", line, jerr, derr)
	}
	if jerr == nil && !reflect.DeepEqual(wantH, gotH) {
		t.Fatalf("header record %q:\nencoding/json %#v\nwireDecoder   %#v", line, wantH, gotH)
	}

	wantCR, werr := c.refCert(line)
	gotCR, gerr := c.cert(line)
	if verdict(werr) != verdict(gerr) {
		t.Fatalf("cert line %q: reference %s (%v), decoder %s (%v)", line, verdict(werr), werr, verdict(gerr), gerr)
	}
	if werr == nil && !reflect.DeepEqual(certWire(wantCR), certWire(gotCR)) {
		t.Fatalf("cert line %q:\nreference %#v\ndecoder   %#v", line, certWire(wantCR), certWire(gotCR))
	}
	if verdict(gerr) == "json" && errText(line, gerr) != errText(line, cerr) {
		t.Fatalf("cert line %q: decoder %s, wireDecoder %s", line, errText(line, gerr), errText(line, cerr))
	}
	wantHR, werr := c.refHeader(line)
	gotHR, gerr := c.header(line)
	if verdict(werr) != verdict(gerr) {
		t.Fatalf("header line %q: reference %s (%v), decoder %s (%v)", line, verdict(werr), werr, verdict(gerr), gerr)
	}
	if werr == nil && !reflect.DeepEqual(wantHR, gotHR) {
		t.Fatalf("header line %q:\nreference %#v\ndecoder   %#v", line, wantHR, gotHR)
	}
	*c.own = netmodel.Set[netmodel.IP]{}
	if gerr == nil {
		c.own.Add(gotHR.IP)
	}
	for _, f := range []struct {
		set    string
		decode func([]byte) (HeaderRecord, error)
		want   HeaderRecord
	}{
		{"empty", c.headerNone, HeaderRecord{IP: gotHR.IP}},
		{"holding its IP", c.headerOwn, gotHR},
	} {
		rec, ferr := f.decode(line)
		if errText(line, ferr) != errText(line, gerr) {
			t.Fatalf("header line %q, %s set: %s, full decode %s", line, f.set, errText(line, ferr), errText(line, gerr))
		}
		if gerr == nil && !reflect.DeepEqual(rec, f.want) {
			t.Fatalf("header line %q, %s set:\ngot  %#v\nwant %#v", line, f.set, rec, f.want)
		}
	}
}

// Issuer elements seeds share, so that one set of decoders meets them
// again in its issuer memo. testIssuer2 has testIssuer's probe key and
// differs after it; testRoot is only 26 bytes long.
const (
	testIssuer  = `{"serial":501,"subject_org":"Test CA","subject_cn":"Test CA Intermediate","is_ca":true,"key":12,"signed_by":11}`
	testIssuer2 = `{"serial":501,"subject_org":"Test CA","subject_cn":"Test CA Intermediate 2","is_ca":true,"key":13,"signed_by":11}`
	testRoot    = `{"key":11,"signed_by":11}`
)

// wireSeeds are the decoder's edge cases: key matching, value handling
// and structure, each paired with the verdict encoding/json gives it as
// a certificate record.
var wireSeeds = []struct{ line, verdict string }{
	// Shared issuers: a plain chain, the same issuers twice in one chain,
	// issuers followed by junk inside the array, the same values under
	// other key orders and white space, a repeated chain key after them
	// (decoded in place into their values), an issuer sharing a probe key
	// with one already seen, and lines that end inside or just after one.
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testIssuer + `,` + testRoot + `]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testRoot + `,` + testIssuer + `,` + testRoot + `,` + testIssuer + `]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testIssuer + ` x]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testIssuer + `,` + testRoot + `,]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testRoot + `{"key":1}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testIssuer + `,{"serial":"x"}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},{"signed_by":11,"key":11},{"subject_org":"Test CA","serial":501,"subject_cn":"Test CA Intermediate","is_ca":true,"key":12,"signed_by":11}]}`, "ok"},
	{"{\"ip\":\"1.2.3.4\",\"chain\":[ {\"serial\":1} ,\n\t" + testIssuer + " ,\r\n " + testRoot + " ,{\"key\": 11,\"signed_by\":11} ]}", "ok"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testIssuer + `,` + testRoot + `],"chain":[{"serial":3},{},{"key":99}]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testIssuer + `],"CHAIN":[{"serial":3},{"serial":4},` + testIssuer + `]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testRoot + `],"chain":null}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testIssuer + `],"chain":[{},` + testIssuer + ` x]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":2},` + testIssuer2 + `,` + testRoot + `]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"serial":2},{"serial":501,"subject_org":"Test CA"}]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testIssuer[:len(testIssuer)-1], "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testIssuer, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testRoot[:len(testRoot)-3], "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testRoot + `]`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},` + testIssuer + `,` + testRoot + `]} x`, "json"},
	{`{"ip":"1.2.3.4.5","chain":[{"serial":1},` + testIssuer + `]}`, "ip"},
	// Keys: exact, case-folded as encoding/json folds them (ſ is s and
	// the Kelvin sign K is k, the dotless ı is not i), and escaped.
	{`{"ip":"1.2.3.4","chain":[{"serial":1,"key":2,"signed_by":3}]}`, "ok"},
	{`{"IP":"1.2.3.4","ChAin":[{"SERIAL":1,"Subject_Org":"Google LLC"}]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"ſerial":7,"ſigned_by":8,"Key":9,"KEY":10}]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"\u017ferial":7,"\u212Aey":9}]}`, "ok"},
	{`{"ıp":"1.2.3.4"}`, "ip"},
	{`{"\u0069\u0070":"1.2.3.4","ch\u0061in":[{"dns_n\u0061mes":["a"]}]}`, "ok"},
	{`{"ip\u0000":"1.2.3.4"}`, "ip"},
	// Repeated keys decode in place into the existing elements: the
	// second chain keeps the first's key, and the third reuses the
	// elements the second truncated away.
	{`{"ip":"1.2.3.4","chain":[{"serial":1,"key":2,"dns_names":["a","b","c"]}],"chain":[{"serial":3,"dns_names":[null,"d"]}]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},{"serial":2},{"serial":3}],"chain":[{"serial":4}],"chain":[{},null,{},{},{}]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1},{"serial":2}],"chain":[],"chain":[null,null]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1}],"chain":null,"chain":[null]}`, "ok"},
	{`{"ip":"1.2.3.4","ip":"5.6.7.8","ip":null,"headers":[{"Name":"a","Value":"b"}],"headers":[{"Value":"c"}]}`, "ok"},
	// Header lines a want set walks or decodes in full: the IP after the
	// list, repeated before or after it (the last one is the record's),
	// null or of the wrong type after it; the list repeated; keys
	// case-folded; an IP that does not parse, with json damage later in
	// the line.
	{`{"headers":[{"Name":"Server","Value":"gws"}],"ip":"1.2.3.4"}`, "ok"},
	{`{"ip":"1.2.3.4","ip":"5.6.7.8","headers":[{"Name":"Server","Value":"gws"}]}`, "ok"},
	{`{"ip":"1.2.3.4","headers":[{"Name":"Server","Value":"gws"}],"ip":"5.6.7.8"}`, "ok"},
	{`{"ip":"1.2.3.4","headers":[{"Name":"a","Value":"b"}],"ip":null}`, "ok"},
	{`{"ip":"1.2.3.4","headers":[{"Name":"a","Value":"b"},{"Name":"c"}],"headers":[{"Value":"d"}]}`, "ok"},
	{`{"ip":"1.2.3.4","headers":[{"Name":"a"}],"headers":null,"headers":[]}`, "ok"},
	{`{"IP":"1.2.3.4","HEADERS":[{"NAME":"Server","vAlUe":"gws"}],"Headers":[{}]}`, "ok"},
	{`{"ip":"1.2.3.4","headers":[{"Name":"a"}],"ip":5}`, "json"},
	{`{"ip":"1.2.3","headers":[{"Name":"a","Value":"b"}],"x":[1 2]}`, "json"},
	{`{"ip":"1.2.3","headers":[{"Name":"a","Value":"b"}]}`, "ip"},
	// Unknown fields of any shape are skipped.
	{`{"x":{"y":[1,-2.5e+10,{"z":null}],"w":"s\u00e9\n"},"ip":"1.2.3.4","v":[],"u":{},"t":true,"f":false,"n":null}`, "ok"},
	// null leaves scalars and strings untouched and makes slices nil;
	// [] is a non-nil empty slice.
	{`{"ip":"1.2.3.4","chain":[{"serial":5,"serial":null,"subject_org":"x","subject_org":null,"is_ca":true,"is_ca":null}]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"dns_names":["a"],"dns_names":null}]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"dns_names":[]}],"headers":[]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":null,"headers":null}`, "ok"},
	{`{"ip":null}`, "ip"},
	// Integers: the range ends are accepted; fractions, exponents, a
	// sign on unsigned fields and out-of-range values are not.
	{`{"ip":"1.2.3.4","chain":[{"serial":18446744073709551615,"not_before":-9223372036854775808,"not_after":9223372036854775807}]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"serial":0,"not_before":-0,"not_after":0}]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"serial":18446744073709551616}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"not_before":-9223372036854775809}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"not_after":9223372036854775808}]}`, "json"},
	{`{"ChAin":[{"not_Before":20000000000000000000}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":-1}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"key":-0}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1.0}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1e3}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"not_before":1E+2}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":01}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":-}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1.}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":1e}]}`, "json"},
	// Strings: invalid UTF-8 and lone surrogates become U+FFFD; control
	// characters and bad escapes are rejected.
	{"{\"ip\":\"1.2.3.4\",\"chain\":[{\"subject_org\":\"bad \xff \xc3 \xed\xa0\x80 end\"}]}", "ok"},
	{`{"ip":"1.2.3.4","chain":[{"subject_org":"\ud800 \udc00 \ud800\u0041 \ud800\ud800\udc00 \ud83d\ude00 \uD83D\uDE00"}]}`, "ok"},
	{`{"ip":"1.2.3.4","chain":[{"subject_org":"\"\\\/\b\f\n\r\t\u00e9"}]}`, "ok"},
	{"{\"ip\":\"1.2.3.4\",\"chain\":[{\"subject_org\":\"tab\there\"}]}", "json"},
	{"{\"ip\":\"1.2.3.4\",\"chain\":[{\"subject_org\":\"nul\x00\"}]}", "json"},
	{`{"ip":"1.2.3.4","chain":[{"subject_org":"\x"}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"subject_org":"\'"}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"subject_org":"\u12"}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"subject_org":"\u12G4"}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"subject_org":"\ud800\u12G4"}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"subject_org":"unterminated`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"subject_org":"escape at end\`, "json"},
	// Wrong types.
	{`{"ip":5}`, "json"},
	{`{"ip":"1.2.3.4","chain":{}}`, "json"},
	{`{"ip":"1.2.3.4","chain":[1]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"serial":"1"}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"is_ca":1}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"forged":"true"}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"dns_names":"a"}]}`, "json"},
	{`{"ip":"1.2.3.4","chain":[{"dns_names":[1]}]}`, "json"},
	{`{"ip":"1.2.3.4","headers":[{"Name":5}]}`, "ok"},
	{`{"ip":"1.2.3.4","headers":[{"Name":"a","Value":"b"},null,{"Value":true}]}`, "ok"},
	{`{"ip":"1.2.3.4","headers":[{"Name":"a"},1]}`, "ok"},
	{`{"ip":"1.2.3.4","headers":{}}`, "ok"},
	{`{"ip":"1.2.3.4","headers":[{"Name":"a"}],"headers":[{"Value":[]}]}`, "ok"},
	// Structure: white space, top-level values, trailing data, syntax.
	{" \t{ \"ip\" :\r\n \"1.2.3.4\" , \"chain\" : [ ] } \n", "ok"},
	{`null`, "ip"},
	{`{}`, "ip"},
	{``, "json"},
	{`[]`, "json"},
	{`"1.2.3.4"`, "json"},
	{`1`, "json"},
	{`true`, "json"},
	{`nul`, "json"},
	{`{"ip":"1.2.3.4"} x`, "json"},
	{`{"ip":"1.2.3.4"}{}`, "json"},
	{`{"ip":"1.2.3.4",}`, "json"},
	{`{"ip" "1.2.3.4"}`, "json"},
	{`{,"ip":"1.2.3.4"}`, "json"},
	{`{"ip":"1.2.3.4","x":[1,]}`, "json"},
	{`{"ip":"1.2.3.4","x":[1 2]}`, "json"},
	{`{"ip":"1.2.3.4","x":nulL}`, "json"},
	{`{"ip":"1.2.3.4","x":{"a"}}`, "json"},
	{`{"ip":"1.2.3.4"`, "json"},
	{`{"ip":"01.2.3.4"}`, "ip"},
	// Nesting: 10,000 levels are accepted, 10,001 are not.
	{`{"ip":"1.2.3.4","x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, "ok"},
	{`{"ip":"1.2.3.4","x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, "json"},
	{`{"ip":"1.2.3.4","x":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `}`, "ok"},
	{`{"ip":"1.2.3.4","x":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`, "json"},
}

// TestWireDecoderMatchesEncodingJSON runs the seeds through one set of
// decoders, in order and then reversed, so every seed also follows
// others whose records the decoders' reused storage held.
func TestWireDecoderMatchesEncodingJSON(t *testing.T) {
	c := newWireCheck()
	for i := range wireSeeds {
		c.line(t, []byte(wireSeeds[len(wireSeeds)-1-i].line))
	}
	for _, s := range wireSeeds {
		c.line(t, []byte(s.line))
		if _, err := newCertDecoder()([]byte(s.line)); verdict(err) != s.verdict {
			t.Errorf("cert line %.80q: verdict %s (%v), want %s", s.line, verdict(err), err, s.verdict)
		}
	}
}

// TestWireDecoderOnWrittenCorpus runs every line of a corpus.Write
// snapshot through both decoders.
func TestWireDecoderOnWrittenCorpus(t *testing.T) {
	snap := sampleSnapshot(t)
	root := t.TempDir()
	if err := Write(root, snap); err != nil {
		t.Fatal(err)
	}
	c := newWireCheck()
	lines := 0
	for _, name := range []string{"certs.ndjson.gz", "https_headers.ndjson.gz", "http_headers.ndjson.gz"} {
		f, err := os.Open(filepath.Join(Dir(root, snap.Vendor, snap.Snapshot), name))
		if err != nil {
			t.Fatal(err)
		}
		gz, err := gzip.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(gz)
		for sc.Scan() {
			c.line(t, sc.Bytes())
			lines++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if want := len(snap.Certs) + len(snap.HTTPS) + len(snap.HTTP); lines != want {
		t.Fatalf("compared %d lines, want %d", lines, want)
	}
}

// TestReadLineLongerThanBuffer pins the line reader's reassembly of a
// record longer than its 64 KiB read buffer, between two short ones.
func TestReadLineLongerThanBuffer(t *testing.T) {
	names := make([]string, 20000)
	for i := range names {
		names[i] = fmt.Sprintf("host%d.example", i)
	}
	long, err := json.Marshal(wireCertRecord{IP: "5.6.7.8", Chain: []wireCert{{Serial: 2, DNSNames: names}}})
	if err != nil {
		t.Fatal(err)
	}
	short := `{"ip":"1.2.3.4","chain":[{"serial":1}]}`
	recs, fs, err := decodeChunked(gzipped(t, short+"\n"+string(long)+"\n"+short), ReadOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(long) < 4<<16 || fs.Records != 3 || len(recs) != 3 {
		t.Fatalf("%d-byte line: %d records decoded (%s), want 3", len(long), len(recs), fs)
	}
	if got := recs[1].Chain[0].DNSNames; !reflect.DeepEqual(got, names) || recs[2].Chain[0].SerialNumber != 1 {
		t.Fatalf("long record decoded %d names, want %d", len(got), len(names))
	}
}

// TestStrictErrorLocatesRecord pins that a strict read names the file,
// the line and the byte offset within the line of a malformed record.
func TestStrictErrorLocatesRecord(t *testing.T) {
	raw := `{"ip":"1.2.3.4","chain":[]}` + "\n" + ` {"ip":"1.2.3.4","chain":[{"serial":"x"}]}` + "\n"
	_, _, err := decodeChunked(gzipped(t, raw), ReadOptions{}, 0)
	if err == nil {
		t.Fatal("strict read of a malformed record succeeded")
	}
	for _, want := range []string{"fuzz", "line 2 byte 36", "json"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// FuzzWireDecode holds wireDecoder to encoding/json on arbitrary input,
// split into lines decoded in order as one file read does: the same
// verdict, and identical records when both accept.
func FuzzWireDecode(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s.line))
	}
	snap := sampleSnapshot(f)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range snap.Certs[:2] {
		w := wireCertRecord{IP: r.IP.String()}
		for _, c := range r.Chain {
			w.Chain = append(w.Chain, toWireCert(c))
		}
		if err := enc.Encode(&w); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.TrimSpace(buf.Bytes()))
		buf.Reset()
	}
	// Long chains and header lists, then short ones with null elements:
	// reused storage must not leak the earlier records' values.
	f.Add([]byte(`{"ip":"1.2.3.4","chain":[{"serial":1,"dns_names":["a","b"]},{"serial":2},{"serial":3}],"headers":[{"Name":"a"},{"Name":"b"}]}` + "\n" +
		`{"ip":"1.2.3.5","chain":[null,{},null,null],"headers":[null,null,null]}`))
	// Lines sharing issuers, which later lines meet in the issuer memo.
	f.Add([]byte(`{"ip":"1.2.3.4","chain":[{"serial":1},` + testIssuer + `,` + testRoot + `]}` + "\n" +
		`{"ip":"1.2.3.5","chain":[{"serial":2},` + testIssuer2 + `,` + testRoot + `]}` + "\n" +
		`{"ip":"1.2.3.6","chain":[{"serial":3}, ` + testIssuer + ` ,` + testRoot + `,null,` + testRoot + `]}` + "\n" +
		`{"ip":"1.2.3.7","chain":[{"serial":4},` + testIssuer + `],"chain":[{},{}]}` + "\n" +
		`{"ip":"1.2.3.8","chain":[{"serial":5},` + testIssuer2[:40]))
	f.Fuzz(func(t *testing.T, input []byte) {
		c := newWireCheck()
		for _, line := range bytes.Split(input, []byte("\n")) {
			c.line(t, line)
		}
	})
}
