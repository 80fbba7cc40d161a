// Package servefarm runs a farm of real TLS/HTTP servers on loopback,
// emulating the serving behaviours the methodology must cope with:
// default certificates, SNI-dependent certificates, null default
// certificates (SNI-only servers), self-signed impostors, and
// per-operator response headers. The probe scanner exercises genuine
// crypto/tls handshakes and HTTP requests against it — the live
// equivalent of the paper's certigo and ZGrab2 scans. StartDemo brings
// up the one demo farm every live-path command and test scans.
package servefarm

import (
	"crypto/tls"
	"errors"
	"fmt"
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
	// Organization and DNSNames shape the default certificate.
	Organization string
	DNSNames     []string
	// Headers are sent on every HTTP(S) response.
	Headers []hg.Header
	// SelfSigned mints the default certificate without the farm CA.
	SelfSigned bool
	// SNIOnly servers present no default certificate: the handshake
	// fails without a matching server name (the §8 null-certificate
	// hide-and-seek behaviour).
	SNIOnly bool
	// ExtraDomains are additional certificates served only for their
	// exact SNI (third-party hosting: an Akamai box serving Apple).
	ExtraDomains map[string]ExtraCert
}

// ExtraCert is one SNI-specific certificate's identity.
type ExtraCert struct {
	Organization string
	DNSNames     []string
}

// Server is one running farm member.
type Server struct {
	Spec     Spec
	TLSAddr  string // host:port of the HTTPS listener
	HTTPAddr string // host:port of the plain-HTTP listener
	tlsLn    net.Listener
	httpLn   net.Listener
	httpSrv  *http.Server
	httpsSrv *http.Server
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
	namedCert := &cert
	// SNI-only servers hold their certificate but refuse to present it
	// as a default.
	defaultCert := namedCert
	if spec.SNIOnly {
		defaultCert = nil
	}
	extra := make(map[string]*tls.Certificate, len(spec.ExtraDomains))
	for domain, ec := range spec.ExtraDomains {
		cert, err := ca.IssueLeaf(certgen.LeafSpec{Organization: ec.Organization, DNSNames: ec.DNSNames})
		if err != nil {
			return nil, err
		}
		extra[domain] = &cert
	}

	tlsCfg := &tls.Config{
		GetCertificate: func(chi *tls.ClientHelloInfo) (*tls.Certificate, error) {
			if chi.ServerName != "" {
				if c, ok := extra[chi.ServerName]; ok {
					return c, nil
				}
				if matchesAny(spec.DNSNames, chi.ServerName) {
					return namedCert, nil
				}
			}
			if defaultCert == nil {
				return nil, errors.New("servefarm: no certificate for this server name")
			}
			return defaultCert, nil
		},
	}

	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for _, h := range spec.Headers {
			w.Header().Set(h.Name, h.Value)
		}
		fmt.Fprintf(w, "hello from %s\n", spec.Name)
	})

	tlsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tlsLn.Close()
		return nil, err
	}
	srv := &Server{
		Spec:     spec,
		TLSAddr:  tlsLn.Addr().String(),
		HTTPAddr: httpLn.Addr().String(),
		tlsLn:    tlsLn,
		httpLn:   httpLn,
		httpsSrv: &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
		httpSrv:  &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
	}
	go srv.httpsSrv.Serve(tls.NewListener(tlsLn, tlsCfg)) //nolint:errcheck — closed on shutdown
	go srv.httpSrv.Serve(httpLn)                          //nolint:errcheck — closed on shutdown
	return srv, nil
}

func matchesAny(patterns []string, name string) bool {
	for _, p := range patterns {
		if hg.MatchDomain(p, name) {
			return true
		}
	}
	return false
}

// TLSAddrs lists every server's HTTPS address in farm order.
func (f *Farm) TLSAddrs() []string {
	out := make([]string, len(f.Servers))
	for i, s := range f.Servers {
		out[i] = s.TLSAddr
	}
	return out
}

// ByTLSAddr finds the server listening on addr.
func (f *Farm) ByTLSAddr(addr string) (*Server, bool) {
	for _, s := range f.Servers {
		if s.TLSAddr == addr {
			return s, true
		}
	}
	return nil, false
}

// Close shuts every server down.
func (f *Farm) Close() {
	var wg sync.WaitGroup
	for _, s := range f.Servers {
		wg.Add(1)
		go func(s *Server) {
			defer wg.Done()
			s.httpsSrv.Close()
			s.httpSrv.Close()
			s.tlsLn.Close()
			s.httpLn.Close()
		}(s)
	}
	wg.Wait()
}
