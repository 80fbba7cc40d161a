// Package servefarm runs a farm of real HTTPS servers on loopback, each
// presenting one certificate (issued by the farm CA, or self-signed for
// an impostor) to every client and sending per-operator response
// headers. The probe scanner exercises genuine crypto/tls handshakes
// and HTTPS requests against it — the live equivalent of the paper's
// certigo and ZGrab2 scans. StartDemo brings up the one demo farm every
// live-path command and test scans.
package servefarm

import (
	"crypto/tls"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"offnetscope/internal/certgen"
	"offnetscope/internal/hg"
)

// Spec describes one server in the farm.
type Spec struct {
	// Name labels the server in results (e.g. "google-onnet-1").
	Name string
	// Organization and DNSNames shape the certificate.
	Organization string
	DNSNames     []string
	// Headers are sent on every HTTPS response.
	Headers []hg.Header
	// SelfSigned mints the certificate without the farm CA.
	SelfSigned bool
}

// Server is one running farm member.
type Server struct {
	Spec    Spec
	TLSAddr string // host:port of the HTTPS listener
	ln      net.Listener
	srv     *http.Server
}

// Farm is a set of running servers sharing one CA.
type Farm struct {
	CA      *certgen.CA
	Servers []*Server
}

// Start brings up every spec on 127.0.0.1 with ephemeral ports, under
// a fresh random CA.
func Start(specs []Spec) (*Farm, error) {
	ca, err := certgen.NewCA("Farm WebPKI")
	if err != nil {
		return nil, err
	}
	return start(ca, specs)
}

func start(ca *certgen.CA, specs []Spec) (*Farm, error) {
	farm := &Farm{CA: ca}
	for _, spec := range specs {
		srv, err := startServer(ca, spec)
		if err != nil {
			farm.Close()
			return nil, fmt.Errorf("servefarm: starting %s: %w", spec.Name, err)
		}
		farm.Servers = append(farm.Servers, srv)
	}
	return farm, nil
}

func startServer(ca *certgen.CA, spec Spec) (*Server, error) {
	var cert tls.Certificate
	var err error
	leafSpec := certgen.LeafSpec{Organization: spec.Organization, DNSNames: spec.DNSNames}
	if spec.SelfSigned {
		cert, err = certgen.SelfSigned(leafSpec)
	} else {
		cert, err = ca.IssueLeaf(leafSpec)
	}
	if err != nil {
		return nil, err
	}
	tlsCfg := &tls.Config{Certificates: []tls.Certificate{cert}}

	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for _, h := range spec.Headers {
			w.Header().Set(h.Name, h.Value)
		}
		fmt.Fprintf(w, "hello from %s\n", spec.Name)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &Server{
		Spec:    spec,
		TLSAddr: ln.Addr().String(),
		ln:      ln,
		// A probe that gives up mid-handshake is the farm working as
		// meant, not an error: without its own ErrorLog the server would
		// print it through the standard logger, on the hosting process's
		// stderr under that process's prefix.
		srv: &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second, ErrorLog: log.New(io.Discard, "", 0)},
	}
	go s.srv.Serve(tls.NewListener(ln, tlsCfg)) //nolint:errcheck — closed on shutdown
	return s, nil
}

// TLSAddrs lists every server's HTTPS address in farm order.
func (f *Farm) TLSAddrs() []string {
	out := make([]string, len(f.Servers))
	for i, s := range f.Servers {
		out[i] = s.TLSAddr
	}
	return out
}

// Close shuts every server down.
func (f *Farm) Close() {
	var wg sync.WaitGroup
	for _, s := range f.Servers {
		wg.Add(1)
		go func(s *Server) {
			defer wg.Done()
			s.srv.Close()
			s.ln.Close()
		}(s)
	}
	wg.Wait()
}
