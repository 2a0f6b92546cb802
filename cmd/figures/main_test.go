package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from the current output")

// TestEveryFigureRegenerates drives each figure generator; the protocol
// assertions live in the package tests — this guards the tool itself.
func TestEveryFigureRegenerates(t *testing.T) {
	ctx := context.Background()
	for n, f := range figures {
		n, f := n, f
		t.Run(f.title, func(t *testing.T) {
			if err := f.fn(ctx, io.Discard); err != nil {
				t.Fatalf("figure %d: %v", n, err)
			}
		})
	}
}

// TestRunAll renders every figure and compares the output with
// testdata/figures.golden, so a change to a model's SignalSet, the
// coordinator's delivery or the trace recorder shows as a diff in the
// paper's message sequences. Run with -update to rewrite the golden.
func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 0); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, exp := canonical(buf.String()), canonical(string(want))
	if got == exp {
		return
	}
	gl, el := strings.Split(got, "\n"), strings.Split(exp, "\n")
	for i := 0; i < len(gl) && i < len(el); i++ {
		if gl[i] != el[i] {
			t.Fatalf("figures differ from %s at line %d:\n got: %q\nwant: %q", golden, i+1, gl[i], el[i])
		}
	}
	t.Fatalf("figures differ from %s in length: got %d lines, want %d", golden, len(gl), len(el))
}

// canonical removes the figures' one nondeterminism: the workflow engine
// (figs. 1, 2 and 10) starts each stage's tasks in their own goroutines,
// so a started task's child activity runs concurrently with the rest of
// its start round, and fig. 10 starts b and c together, in map order. So
// each stage's lines — from its start round's get_signal up to the next
// stage's, or the end of the trace — lose their trace index and are
// sorted. Every other line must match exactly, in order.
func canonical(out string) string {
	lines := strings.Split(out, "\n")
	start := -1
	sortStage := func(end int) {
		if start < 0 {
			return
		}
		for i, l := range lines[start:end] {
			if f := strings.Fields(l); len(f) > 0 {
				lines[start+i] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(l), f[0]))
			}
		}
		sort.Strings(lines[start:end])
		start = -1
	}
	for i, l := range lines {
		switch {
		case strings.TrimSpace(l) == "":
			sortStage(i)
		case strings.Contains(l, " get_signal ") && strings.Contains(l, " -> start-"):
			sortStage(i)
			start = i
		}
	}
	sortStage(len(lines))
	return strings.Join(lines, "\n")
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run(io.Discard, 99); err == nil {
		t.Fatal("unknown figure accepted")
	}
}
