package servefarm

import (
	"offnetscope/internal/astopo"
	"offnetscope/internal/certgen"
	"offnetscope/internal/certmodel"
	"offnetscope/internal/hg"
)

// demoSeed fixes the demo farm's CA key, so a chain one process's wave
// checkpointed still validates under the next process's trust store.
var demoSeed = [32]byte{'o', 'f', 'f', 'n', 'e', 't', 's', 'c', 'o', 'p', 'e', ' ', 'd', 'e', 'm', 'o'}

// Demo is the demo farm: the miniature Internet that offnetwatchd
// -farm, cmd/livescan and the wave tests scan, with everything
// §4 needs besides the probes. Server i sits in AS 64512+i.
type Demo struct {
	*Farm
	ASes  []astopo.ASN          // ASes[i] is Servers[i]'s AS
	Orgs  *astopo.OrgDB         // on-net ASes to their organization (§4.2)
	Trust *certmodel.TrustStore // the farm CA (§4.1)
}

const (
	google  = "Google LLC"
	akamai  = "Akamai Technologies, Inc."
	netflix = "Netflix, Inc."
)

var (
	gws   = []hg.Header{{Name: "Server", Value: "gws"}}
	ghost = []hg.Header{{Name: "Server", Value: "AkamaiGHost"}}
	nginx = []hg.Header{{Name: "Server", Value: "nginx"}}
)

// demoServers is the farm in AS order: two Google off-nets, an Akamai
// off-net, a background site and a self-signed impostor, then on-nets
// whose names §4.2 learns, a partner whose shared Google certificate
// also names a foreign domain (§4.3 rejects it), and an Open Connect
// appliance that answers anonymous scans with only "Server: nginx"
// (only the §4.4 Netflix rule confirms it).
var demoServers = []struct {
	spec  Spec
	onNet bool
}{
	{Spec{Name: "google-offnet-1", Organization: google, DNSNames: []string{"*.googlevideo.com"}, Headers: gws}, false},
	{Spec{Name: "google-offnet-2", Organization: google, DNSNames: []string{"*.googlevideo.com", "*.youtube.com"}, Headers: gws}, false},
	{Spec{Name: "akamai-offnet", Organization: akamai, DNSNames: []string{"a248.e.akamai.net"}, Headers: ghost}, false},
	{Spec{Name: "background", Organization: "Acme Web Services", DNSNames: []string{"www.acme.example"}, Headers: nginx}, false},
	{Spec{Name: "google-impostor", Organization: google, DNSNames: []string{"*.google.com"}, SelfSigned: true, Headers: nginx}, false},
	{Spec{Name: "google-onnet", Organization: google, DNSNames: []string{"*.google.com", "*.googlevideo.com", "*.youtube.com"}, Headers: gws}, true},
	{Spec{Name: "akamai-onnet", Organization: akamai, DNSNames: []string{"a248.e.akamai.net", "*.akamaized.net"}, Headers: ghost}, true},
	{Spec{Name: "google-partner", Organization: google, DNSNames: []string{"*.google.com", "*.partner.example"}, Headers: gws}, false},
	{Spec{Name: "netflix-onnet", Organization: netflix, DNSNames: []string{"*.netflix.com", "*.nflxvideo.net"},
		Headers: []hg.Header{{Name: "Server", Value: "nginx"}, {Name: "X-TCP-Info", Value: "rtt:120"}}}, true},
	{Spec{Name: "netflix-oca", Organization: netflix, DNSNames: []string{"*.nflxvideo.net"}, Headers: nginx}, false},
}

// StartDemo brings up the demo farm under its seeded CA.
func StartDemo() (*Demo, error) {
	ca, err := certgen.NewCAFromSeed("Farm WebPKI", demoSeed)
	if err != nil {
		return nil, err
	}
	d := &Demo{Orgs: astopo.NewOrgDB(), Trust: certmodel.NewTrustStore()}
	if err := d.Trust.AddX509Root(ca.Cert); err != nil {
		return nil, err
	}
	var specs []Spec
	for i, s := range demoServers {
		specs = append(specs, s.spec)
		d.ASes = append(d.ASes, astopo.ASN(64512+i))
		if s.onNet {
			d.Orgs.Set(d.ASes[i], 0, s.spec.Organization)
		}
	}
	if d.Farm, err = start(ca, specs); err != nil {
		return nil, err
	}
	return d, nil
}
