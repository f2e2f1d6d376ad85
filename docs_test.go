package cdpu

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// docArtifactFiles are the documents and build files whose artifact
// references must resolve in the tree.
var docArtifactFiles = []string{
	"README.md",
	"docs/MODEL.md",
	"EXPERIMENTS.md",
	"Makefile",
	".github/workflows/ci.yml",
}

var (
	benchFileRE = regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)
	// A repo path: cmd/, internal/ or examples/ at a token start (optionally
	// after "./"), then path characters. A trailing ".go"-style lowercase
	// extension is part of the path; ".Name" (a Go identifier) and "/..."
	// (a package pattern) are not.
	repoPathRE = regexp.MustCompile(`(?:^|[^A-Za-z0-9_/-])(?:\./)?((?:cmd|internal|examples)/[A-Za-z0-9_/-]*(?:\.[a-z]+)?)`)
)

// TestDocsNameExistingArtifacts fails when a document or build file cites a
// checked-in benchmark file (BENCH_*.json) or a cmd/, internal/ or examples/
// path that is not in the tree, so the docs cannot drift into naming
// artifacts that were never checked in or have since been deleted.
func TestDocsNameExistingArtifacts(t *testing.T) {
	for _, doc := range docArtifactFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			var refs []string
			refs = append(refs, benchFileRE.FindAllString(line, -1)...)
			for _, m := range repoPathRE.FindAllStringSubmatch(line, -1) {
				refs = append(refs, strings.TrimRight(m[1], "/"))
			}
			for _, ref := range refs {
				if _, err := os.Stat(ref); err != nil {
					t.Errorf("%s:%d names %s, which is not in the tree", doc, i+1, ref)
				}
			}
		}
	}
}
