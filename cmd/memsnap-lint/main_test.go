package main

import (
	"bytes"
	"go/token"
	"path/filepath"
	"slices"
	"testing"

	"memsnap/internal/lint"
)

// TestPatternOnCleanTree runs the command with patterns that leave out
// every main. The unreachable pass must still see the whole module,
// so the clean tree reports nothing and exits 0.
func TestPatternOnCleanTree(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if rc := run([]string{"./cmd/msnap-serve", "./internal/shard"}, &stdout, &stderr); rc != 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d on a clean tree, stdout:\n%s\nstderr:\n%s", rc, stdout.String(), stderr.String())
	}
}

// TestPatternDirs pins how a pattern names a directory, with or
// without "/...", and that a misspelt one is an error rather than an
// empty, clean report.
func TestPatternDirs(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(root, "internal", "shard")
	for _, tc := range []struct {
		patterns []string
		want     []string
	}{
		{nil, nil},
		{[]string{"./..."}, nil},
		{[]string{"./internal/shard"}, []string{shard}},
		{[]string{"internal/shard/..."}, []string{shard}},
	} {
		got, err := patternDirs(root, tc.patterns)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("patterns %q: got %q, %v; want %q", tc.patterns, got, err, tc.want)
		}
	}
	if _, err := patternDirs(root, []string{"./internal/shrad"}); err == nil {
		t.Error("a pattern naming no directory was accepted")
	}
}

// TestUnderDirs pins which findings a directory keeps: its own
// subtree, not a sibling that shares its prefix.
func TestUnderDirs(t *testing.T) {
	root := filepath.FromSlash("/mod")
	dir := func(rel string) string { return filepath.Join(root, filepath.FromSlash(rel)) }
	at := func(rel string) lint.Diagnostic {
		return lint.Diagnostic{Pos: token.Position{Filename: dir(rel)}, Rule: "unreachable"}
	}
	diags := []lint.Diagnostic{at("internal/shard/worker.go"), at("internal/shard/sub/x.go"), at("internal/shardx/y.go"), at("cmd/a/main.go")}
	for _, tc := range []struct {
		dirs []string
		want []int
	}{
		{nil, []int{0, 1, 2, 3}},
		{[]string{dir("internal/shard")}, []int{0, 1}},
		{[]string{dir("internal/shardx"), dir("cmd/a")}, []int{2, 3}},
		{[]string{dir("internal/disk")}, nil},
	} {
		var want []lint.Diagnostic
		for _, i := range tc.want {
			want = append(want, diags[i])
		}
		if got := underDirs(diags, tc.dirs); !slices.Equal(got, want) {
			t.Errorf("dirs %q kept %v, want %v", tc.dirs, got, want)
		}
	}
}
