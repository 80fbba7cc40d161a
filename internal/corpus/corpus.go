// Package corpus defines the scan-record formats the pipeline consumes —
// the shape of the Rapid7/Censys datasets: certificate observations from
// port-443 sweeps and HTTP(S) response headers — plus streaming
// NDJSON+gzip persistence so generated corpuses can be written to disk
// and re-read exactly like the public datasets are.
package corpus

import (
	"time"

	"offnetscope/internal/certmodel"
	"offnetscope/internal/hg"
	"offnetscope/internal/netmodel"
	"offnetscope/internal/timeline"
)

// Vendor identifies a scan corpus source.
type Vendor string

// The corpus sources in the study (§4.6, Table 2).
const (
	Rapid7  Vendor = "rapid7"
	Censys  Vendor = "censys"
	Certigo Vendor = "certigo" // the authors' own active scan
)

// CertRecord is one observation from a port-443 certificate sweep: the
// default chain an IP presented when no SNI was sent.
type CertRecord struct {
	IP    netmodel.IP
	Chain certmodel.Chain
}

// HeaderRecord is one observation from an HTTP (port 80) or HTTPS
// (port 443) banner grab.
type HeaderRecord struct {
	IP      netmodel.IP
	Headers []hg.Header
}

// Snapshot is everything one vendor's scans captured in one study month.
type Snapshot struct {
	Vendor   Vendor
	Snapshot timeline.Snapshot

	Certs []CertRecord
	// HTTPS are port-443 response headers; empty before the vendor
	// started collecting them (Rapid7: summer 2016; Censys: late 2019).
	HTTPS []HeaderRecord
	// HTTP are port-80 response headers, available for the whole window.
	HTTP []HeaderRecord
}

// ScanTime is the instant certificates are validated against — mid-month,
// matching when the sweeps ran.
func (s *Snapshot) ScanTime() time.Time { return s.Snapshot.MidTime() }
