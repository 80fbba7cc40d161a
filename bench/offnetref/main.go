// Command offnetref is offnetbench's reference workloads: fixed work,
// built from the standard library alone, that offnetbench times next to
// each offnetscope workload so that the host's speed cancels out of the
// ratio. Nothing in it depends on offnetscope, so no change to
// offnetscope can move it.
//
//	offnetref serve   serve HTTP on 127.0.0.1:0 until SIGTERM
//	offnetref study   run the study reference on request until stdin ends
//
// serve prints "serving on http://ADDR" once it listens and answers
// every request, /readyz included, with a small JSON document carrying
// "ready": true and "generation": 1, as a ready offnetd does. study
// reads one duration per line, such as "250ms", decodes reference
// records for at least that long, in rounds of 4096 and at least one
// round, and answers each line with one JSON line {"wall_ns", "cpu_ns",
// "ops"}, one operation per record decoded.
package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	code := 2
	switch {
	case len(os.Args) != 2:
	case os.Args[1] == "serve":
		code = serve()
	case os.Args[1] == "study":
		code = study()
	}
	if code == 2 {
		fmt.Fprintln(os.Stderr, "usage: offnetref serve | offnetref study")
	}
	os.Exit(code)
}

// serve is the serving reference: net/http answering every request with
// a JSON document encoded on the spot, as offnetd's /healthz does, so it
// pays for the socket, the HTTP stack and the scheduling offnetd pays
// for and for none of offnetd's own work.
func serve() int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"ready": true, "generation": 1, "path": r.URL.Path})
	})}
	fmt.Printf("serving on http://%s\n", ln.Addr())
	go func() {
		<-ctx.Done()
		srv.Shutdown(context.Background())
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// The study reference decodes gzip-compressed NDJSON scan records with
// encoding/json on two goroutines, as offnetmap -jobs 2 decodes a
// corpus, and indexes them in maps, as inference joins them. Its input
// is generated from a fixed seed, the same in every run.
const (
	records = 2048 // per goroutine and round
	seed    = 20210401
)

type cert struct {
	Subject     string   `json:"subject"`
	Issuer      string   `json:"issuer"`
	SANs        []string `json:"sans"`
	NotBefore   int64    `json:"not_before"`
	NotAfter    int64    `json:"not_after"`
	Fingerprint string   `json:"fingerprint"`
}

type record struct {
	IP    string `json:"ip"`
	Port  int    `json:"port"`
	Time  string `json:"timestamp"`
	Chain []cert `json:"chain"`
}

// study answers each duration read from stdin with a timed run of the
// reference. Generating the input once and staying up between requests
// keeps process start-up out of the caller's measuring budget.
func study() int {
	in := input()
	sc := bufio.NewScanner(os.Stdin)
	out := json.NewEncoder(os.Stdout)
	for sc.Scan() {
		d, err := time.ParseDuration(strings.TrimSpace(sc.Text()))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cpu0, t0 := cpuTime(), time.Now()
		var ops int64
		for ops == 0 || time.Since(t0) < d {
			n, err := round(in)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			ops += n
		}
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		if err := out.Encode(map[string]int64{"wall_ns": int64(wall), "cpu_ns": int64(cpu), "ops": ops}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// round decodes every input stream once, each on its own goroutine.
func round(in [][]byte) (int64, error) {
	counts := make([]int64, len(in))
	errs := make([]error, len(in))
	var wg sync.WaitGroup
	for i := range in {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[i], errs[i] = decode(in[i])
		}()
	}
	wg.Wait()
	var n int64
	for i := range in {
		if errs[i] != nil {
			return 0, errs[i]
		}
		if counts[i] != records {
			return 0, fmt.Errorf("decoded %d of %d records", counts[i], records)
		}
		n += counts[i]
	}
	return n, nil
}

func decode(gz []byte) (int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return 0, err
	}
	byIP := make(map[string]int)
	byName := make(map[string][]string)
	sc := bufio.NewScanner(zr)
	var n int64
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return n, err
		}
		byIP[r.IP]++
		for _, c := range r.Chain {
			byName[c.Subject] = append(byName[c.Subject], r.IP)
			for _, san := range c.SANs {
				byName[san] = append(byName[san], r.IP)
			}
		}
		n++
	}
	return n, sc.Err()
}

// input generates the reference corpus: two gzip streams of records
// shaped like scan records, with one to three certificates each.
func input() [][]byte {
	rng := rand.New(rand.NewPCG(seed, 0))
	word := func() string {
		b := make([]byte, 4+rng.IntN(8))
		for i := range b {
			b[i] = 'a' + byte(rng.IntN(26))
		}
		return string(b)
	}
	out := make([][]byte, 2)
	for i := range out {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		enc := json.NewEncoder(zw)
		for n := 0; n < records; n++ {
			r := record{
				IP:   fmt.Sprintf("%d.%d.%d.%d", 1+rng.IntN(223), rng.IntN(256), rng.IntN(256), rng.IntN(256)),
				Port: 443,
				Time: "2021-04-01T00:00:00Z",
			}
			for c := 0; c < 1+rng.IntN(3); c++ {
				ct := cert{Subject: word() + "." + word() + ".com", Issuer: word() + " CA", NotBefore: rng.Int64N(1 << 31), NotAfter: rng.Int64N(1 << 32)}
				for s := 0; s < rng.IntN(6); s++ {
					ct.SANs = append(ct.SANs, "*."+word()+".net")
				}
				fp := make([]byte, 32)
				for j := range fp {
					fp[j] = byte(rng.Uint32())
				}
				ct.Fingerprint = hex.EncodeToString(fp)
				r.Chain = append(r.Chain, ct)
			}
			enc.Encode(&r) // writes to a gzip.Writer over a bytes.Buffer cannot fail
		}
		zw.Close()
		out[i] = buf.Bytes()
	}
	return out
}

// cpuTime is this process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
