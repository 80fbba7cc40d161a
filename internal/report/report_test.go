package report

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty series = %q", got)
	}
	got := Sparkline([]int{0, 0, 0})
	if utf8.RuneCountInString(got) != 3 {
		t.Errorf("zero series length = %q", got)
	}
	got = Sparkline([]int{1, 2, 4, 8})
	if utf8.RuneCountInString(got) != 4 {
		t.Fatalf("length = %q", got)
	}
	runes := []rune(got)
	if runes[3] != '█' {
		t.Errorf("max value should be a full block: %q", got)
	}
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Errorf("monotone series rendered non-monotonically: %q", got)
		}
	}
}

func TestSparklineScalesQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		values := make([]int, len(raw))
		for i, v := range raw {
			values[i] = int(v)
		}
		got := Sparkline(values)
		return utf8.RuneCountInString(got) == len(values)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSparkRow(t *testing.T) {
	row := SparkRow("Google", []int{10, 20, 40})
	for _, want := range []string{"Google", "10", "40"} {
		if !strings.Contains(row, want) {
			t.Errorf("row %q missing %q", row, want)
		}
	}
	if !strings.Contains(SparkRow("x", nil), "no data") {
		t.Error("empty row should say so")
	}
}
