// Package report renders experiment series as terminal sparklines, so
// cmd/experiments output conveys the *shape* of each figure at a
// glance.
package report

import (
	"fmt"
	"strings"
)

// sparkRunes are the eight block heights of a sparkline cell.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as one line of block characters, scaled to
// the series' own maximum. An all-zero (or empty) series renders as
// baseline blocks.
func Sparkline(values []int) string {
	if len(values) == 0 {
		return ""
	}
	max := 0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if max > 0 && v > 0 {
			idx = (v*len(sparkRunes) - 1) / max
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
			if idx < 0 {
				idx = 0
			}
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// SparkRow renders a labelled sparkline with first/last values, e.g.
//
//	Google     1044 ▁▂▃▄▅▆▇█ 3810
func SparkRow(label string, values []int) string {
	if len(values) == 0 {
		return fmt.Sprintf("%-12s (no data)", label)
	}
	return fmt.Sprintf("%-12s %6d %s %-6d", label, values[0], Sparkline(values), values[len(values)-1])
}
