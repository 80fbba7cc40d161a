package servefarm

import (
	"crypto/tls"
	"io"
	"net/http"
	"testing"
	"time"

	"offnetscope/internal/hg"
)

func startTestFarm(t *testing.T) *Farm {
	t.Helper()
	farm, err := Start([]Spec{
		{
			Name: "alpha", Organization: "Alpha Corp",
			DNSNames: []string{"*.alpha.example"},
			Headers:  []hg.Header{{Name: "X-Alpha", Value: "1"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(farm.Close)
	return farm
}

func TestDefaultCertificate(t *testing.T) {
	farm := startTestFarm(t)
	conn, err := tls.Dial("tcp", farm.Servers[0].TLSAddr, &tls.Config{InsecureSkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	leaf := conn.ConnectionState().PeerCertificates[0]
	if leaf.Subject.Organization[0] != "Alpha Corp" {
		t.Errorf("default cert org = %q", leaf.Subject.Organization[0])
	}
}

func TestHTTPAndHTTPSHeaders(t *testing.T) {
	farm := startTestFarm(t)
	srv := farm.Servers[0]

	client := &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{InsecureSkipVerify: true},
		},
	}
	resp, err := client.Get("https://" + srv.TLSAddr + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Alpha") != "1" {
		t.Errorf("custom header missing: %v", resp.Header)
	}
	if len(body) == 0 {
		t.Error("empty body")
	}
}

func TestByTLSAddr(t *testing.T) {
	farm := startTestFarm(t)
	if addrs := farm.TLSAddrs(); len(addrs) != 1 || addrs[0] != farm.Servers[0].TLSAddr {
		t.Fatalf("TLSAddrs = %v, want the one server's address", addrs)
	}
}

func TestStartFailureCleansUp(t *testing.T) {
	// A farm that fails mid-start must close already-started servers;
	// we can't easily force a failure with valid specs, so at least
	// verify double Close is safe.
	farm := startTestFarm(t)
	farm.Close()
	farm.Close()
}
