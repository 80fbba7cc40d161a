package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListGrid(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-grid", "full", "-list"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"hide/null-0.95", "flash/google-flash", "outage/mid", "certreuse/shared-0.05", "v6/0.2", "scale/0.01"} {
		if !strings.Contains(s, want) {
			t.Errorf("-list output missing cell %q", want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-grid", "nope"},
		{"-cell", "no/such-cell"},
		{"stray-arg"},
		// Worker counts scenarios.Run would replace with one; -list, so
		// an accepted value runs nothing.
		{"-workers", "0", "-list"},
		{"-workers", "-3", "-list"},
	}
	for _, args := range cases {
		err := run(context.Background(), args, &bytes.Buffer{})
		if exitStatus(err) != exitUsage {
			t.Errorf("run(%v) exit = %d, want %d (err: %v)", args, exitStatus(err), exitUsage, err)
		}
	}
}

func TestHelpIsNotAnError(t *testing.T) {
	err := run(context.Background(), []string{"-h"}, &bytes.Buffer{})
	if !errors.Is(err, flag.ErrHelp) || exitStatus(err) != exitOK {
		t.Errorf("-h: err %v, exit %d", err, exitStatus(err))
	}
}

// TestSingleCellRun drives one cheap smoke cell end to end through the
// CLI: JSON lands in -out, markdown in -md, exit code 0.
func TestSingleCellRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full seeded study")
	}
	dir := t.TempDir()
	outPath := filepath.Join(dir, "m.json")
	mdPath := filepath.Join(dir, "m.md")
	err := run(context.Background(),
		[]string{"-grid", "smoke", "-cell", "scale/base", "-q", "-out", outPath, "-md", mdPath},
		&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"id": "scale/base"`) {
		t.Errorf("matrix JSON missing the cell: %s", data)
	}
	md, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "| scale/base |") {
		t.Errorf("markdown table missing the cell row:\n%s", md)
	}
}
