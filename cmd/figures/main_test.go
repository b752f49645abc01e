package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deltasigma/internal/scenario"
)

// Each row runs the command once into a fresh output directory. A refused
// command line is a usageError (exit 2) that names the problem, and it
// writes nothing: not even the output directory.
func TestRun(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		refuse  string   // substring of the usage error; "" = must succeed
		written []string // .dat files the run must leave
	}{
		{"unknown name", []string{"-only", "fig99,fig1x"}, `unknown figure "fig99"`, nil},
		{"unknown after a known one", []string{"-only", "fig1, fig1x"}, `unknown figure "fig1x"`, nil},
		{"non-positive scale", []string{"-scale", "0"}, "-scale must be positive", nil},
		{"bad flag", []string{"-frobnicate"}, "flag provided but not defined", nil},
		{"known name at tiny scale", []string{"-only", "fig7", "-scale", "0.02"}, "", []string{"fig7.dat"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "results")
			var out bytes.Buffer
			err := run(append(tc.args, "-out", dir), &out)
			if tc.refuse != "" {
				if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), tc.refuse) {
					t.Fatalf("run(%v) = %v, want a usage error containing %q", tc.args, err, tc.refuse)
				}
				if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
					t.Fatalf("refused run(%v) created %s", tc.args, dir)
				}
				return
			}
			if err != nil {
				t.Fatalf("run(%v) = %v", tc.args, err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range entries {
				got = append(got, e.Name())
			}
			if strings.Join(got, ",") != strings.Join(tc.written, ",") {
				t.Fatalf("run(%v) wrote %v, want %v", tc.args, got, tc.written)
			}
			if !strings.HasPrefix(out.String(), "== fig7: ") {
				t.Fatalf("summary starts %q, want the fig7 header", out.String())
			}
		})
	}
}

// The refusal of an unknown name lists every figure the command knows.
func TestUnknownNameListsEveryFigure(t *testing.T) {
	err := run([]string{"-only", "fig99", "-out", filepath.Join(t.TempDir(), "results")}, new(bytes.Buffer))
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	if len(scenario.Figures) != 12 {
		t.Fatalf("%d figures registered, want the paper's twelve", len(scenario.Figures))
	}
	for _, f := range scenario.Figures {
		if !strings.Contains(err.Error(), f.Name) {
			t.Errorf("refusal %q does not list %s", err, f.Name)
		}
	}
}
