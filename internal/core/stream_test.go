package core

import (
	"errors"
	"reflect"
	"testing"

	"offnetscope/internal/corpus"
)

// TestInferSnapshotStreamMatchesInferSnapshot pins chunked inference to
// a single-batch stream, which is exactly the unchunked computation —
// validate every record, then match: the complete SnapshotInference —
// every Result field, the HTTP-only set, and the Netflix memory lookups
// — must be deeply equal at any chunk size, including a chunk of one
// record per batch, and with or without the producer's size hint.
func TestInferSnapshotStreamMatchesInferSnapshot(t *testing.T) {
	snap := rapid7At(t, lastSnap)
	p := testPipeline(DefaultOptions())
	want, err := p.InferSnapshotStream(corpus.StreamOf(snap, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		chunk  int
		hinted bool
	}{{1, true}, {7, true}, {0, true}, {0, false}} {
		st := corpus.StreamOf(snap, tc.chunk)
		if !tc.hinted {
			st.SizeHint = [3]int{} // like a stream read off disk
		}
		got, err := p.InferSnapshotStream(st)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if !reflect.DeepEqual(got.Result, want.Result) {
			t.Errorf("%+v: Result diverges from the single-batch inference", tc)
		}
		if !reflect.DeepEqual(got.HTTPOnlyIPs, want.HTTPOnlyIPs) {
			t.Errorf("%+v: HTTPOnlyIPs diverge", tc)
		}
		if !reflect.DeepEqual(got.NetflixLookups, want.NetflixLookups) {
			t.Errorf("%+v: NetflixLookups diverge", tc)
		}
	}
	if res := p.Run(snap); !reflect.DeepEqual(res, want.Result) {
		t.Error("Run diverges from the single-batch inference")
	}
}

// TestInferSnapshotStreamError pins stream-failure semantics: an error
// from any record stream aborts the inference and surfaces with the
// fixed certs-https-http precedence.
func TestInferSnapshotStreamError(t *testing.T) {
	snap := rapid7At(t, lastSnap)
	p := testPipeline(DefaultOptions())
	certErr := errors.New("certs damaged")
	httpErr := errors.New("http damaged")

	st := corpus.StreamOf(snap, 0)
	st.Certs = func(func([]corpus.CertRecord) error) error { return certErr }
	st.HTTP = func(func([]corpus.HeaderRecord) error) error { return httpErr }
	if _, err := p.InferSnapshotStream(st); err != certErr {
		t.Fatalf("got %v, want the certs error (file-order precedence)", err)
	}

	st = corpus.StreamOf(snap, 0)
	st.HTTP = func(func([]corpus.HeaderRecord) error) error { return httpErr }
	if _, err := p.InferSnapshotStream(st); err != httpErr {
		t.Fatalf("got %v, want the http error", err)
	}

	if _, err := p.InferSnapshotStream(corpus.StreamOf(snap, 0)); err != nil {
		t.Fatalf("clean stream must not error: %v", err)
	}
}
