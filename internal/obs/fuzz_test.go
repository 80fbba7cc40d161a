package obs

import (
	"bytes"
	"testing"
)

// FuzzMetricsSnapshot drives a registry with an arbitrary op stream,
// then checks the serialization law the golden suite and the -metrics
// report rely on: snapshot → JSON → parse → JSON is byte-identical.
//
// The op stream is interpreted 3 bytes at a time: kind, metric-name
// index, and a value byte — enough to hit every metric type, names
// shared across metric types, and negative values.
func FuzzMetricsSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{0, 1, 200, 1, 1, 7, 2, 2, 255, 2, 2, 0})
	f.Add(bytes.Repeat([]byte{3, 0, 128}, 40))

	names := []string{"funnel.certs_seen", "funnel.drop.expired", "corpus.records", "lat_ns"}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRegistry("fuzz")
		for i := 0; i+3 <= len(data); i += 3 {
			kind, name, val := data[i], data[i+1], data[i+2]
			n := names[int(name)%len(names)]
			v := int64(val) - 64 // exercise negatives too
			switch kind % 4 {
			case 0:
				r.Counter(n).Add(v)
			case 1:
				r.Counter(n).Inc()
			case 2:
				r.Gauge(n).Add(v)
			case 3:
				r.Histogram(n).Observe(v)
			}
		}

		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		parsed, err := ParseSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("ParseSnapshot of our own output: %v", err)
		}
		var again bytes.Buffer
		if err := parsed.WriteJSON(&again); err != nil {
			t.Fatalf("re-WriteJSON: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", buf.String(), again.String())
		}
	})
}
