package scenarios

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// Matrix is the committed artifact of a grid run: every cell's scores
// and verdicts, in grid order. Encoding is canonical (sorted keys via
// struct order, three-decimal floats, trailing newline) so the same
// grid and seed produce the same bytes at any Workers setting.
type Matrix struct {
	Grid  string       `json:"grid"`
	Seed  uint64       `json:"seed"`
	Cells []CellResult `json:"cells"`
	Pass  bool         `json:"pass"`
	// Failed lists the IDs of failing cells, sorted.
	Failed []string `json:"failed,omitempty"`
}

// EncodeJSON renders the canonical committed form.
func (m *Matrix) EncodeJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, fmt.Errorf("scenarios: encoding matrix: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeMatrix parses an encoded matrix back.
func DecodeMatrix(data []byte) (*Matrix, error) {
	var m Matrix
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("scenarios: decoding matrix: %w", err)
	}
	return &m, nil
}

// Markdown renders the matrix as the committed results table: one row
// per cell with its micro-averaged scores, thresholds, and verdict.
func (m *Matrix) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Scenario matrix — grid %q, seed %d\n\n", m.Grid, m.Seed)
	if m.Pass {
		fmt.Fprintf(&b, "**PASS** — all %d cells within thresholds.\n\n", len(m.Cells))
	} else {
		fmt.Fprintf(&b, "**FAIL** — %d of %d cells out of thresholds: %s\n\n",
			len(m.Failed), len(m.Cells), strings.Join(m.Failed, ", "))
	}
	b.WriteString("| cell | scenario | precision | recall | coverage | gates (P/R/C) | verdict |\n")
	b.WriteString("|---|---|---:|---:|---:|---|---|\n")
	for _, c := range m.Cells {
		verdict := "pass"
		if !c.Pass {
			verdict = "**FAIL**: " + strings.Join(c.Failures, "; ")
		}
		gates := fmt.Sprintf("≥%g / ≥%g / ≥%g", c.Thresholds.MinPrecision, c.Thresholds.MinRecall, c.Thresholds.MinCoverage)
		if c.Thresholds.MaxSpurious > 0 {
			gates += fmt.Sprintf(", ≤%d spurious", c.Thresholds.MaxSpurious)
		}
		fmt.Fprintf(&b, "| %s | %s | %.1f%% | %.1f%% | %.1f%% | %s | %s |\n",
			c.ID, c.Label, c.Precision, c.Recall, c.Coverage, gates, verdict)
	}
	b.WriteString("\nPrecision and recall are micro-averages pooled over every scored\n")
	b.WriteString("snapshot (flash cells also score at their flash peak); coverage is\n")
	b.WriteString("the share of the 31 study months with vendor data. Regenerate with\n")
	b.WriteString("`make scenarios`.\n")
	return b.String()
}
