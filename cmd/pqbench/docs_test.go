package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	fencedRE  = regexp.MustCompile("(?s)```.*?```")
	inlineRE  = regexp.MustCompile("`[^`]*`")
	pqbenchRE = regexp.MustCompile(`\bpqbench ([a-z][a-z0-9-]*)`)
	makeRE    = regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)
)

// codeSpans returns the text of every fenced code block and every inline
// back-quoted span in a Markdown document.
func codeSpans(doc string) []string {
	spans := fencedRE.FindAllString(doc, -1)
	return append(spans, inlineRE.FindAllString(fencedRE.ReplaceAllString(doc, ""), -1)...)
}

// phonyTargets returns the names on the Makefile's .PHONY line.
func phonyTargets(t *testing.T, path string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, name := range strings.Fields(rest) {
				targets[name] = true
			}
		}
	}
	if len(targets) == 0 {
		t.Fatalf("%s: no .PHONY targets found", path)
	}
	return targets
}

// TestHowToDocsNameRealCommands keeps the how-to docs honest: every
// `pqbench <subcommand>` and `make <target>` they show as code must be a
// subcommand main dispatches or a .PHONY target of the Makefile.
// DESIGN.md and EXPERIMENTS.md are excluded on purpose: their "what went"
// tables name retired commands.
func TestHowToDocsNameRealCommands(t *testing.T) {
	root := filepath.Join("..", "..")
	targets := phonyTargets(t, filepath.Join(root, "Makefile"))
	for _, doc := range []string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, span := range codeSpans(string(raw)) {
			for _, m := range pqbenchRE.FindAllStringSubmatch(span, -1) {
				checked++
				if lookup(m[1]) == nil {
					t.Errorf("%s names `pqbench %s`, which main does not dispatch", doc, m[1])
				}
			}
			for _, m := range makeRE.FindAllStringSubmatch(span, -1) {
				checked++
				if !targets[m[1]] {
					t.Errorf("%s names `make %s`, which is not a .PHONY target", doc, m[1])
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: extracted no command tokens; the extractor is broken", doc)
		}
	}
}
