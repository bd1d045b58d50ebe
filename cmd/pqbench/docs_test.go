package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	fencedRE    = regexp.MustCompile("(?s)```.*?```")
	inlineRE    = regexp.MustCompile("`[^`]*`")
	headingRE   = regexp.MustCompile(`(?m)^#+ .*$`)
	reproduceRE = regexp.MustCompile(`(?ms)^Reproduce:.*?(?:\n\s*\n|\z)`)
	pqbenchRE   = regexp.MustCompile(`\bpqbench ([a-z][a-z0-9-]*)`)
	makeRE      = regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)
)

// codeSpans returns the text of every fenced code block and every inline
// back-quoted span in a Markdown document.
func codeSpans(doc string) []string {
	spans := fencedRE.FindAllString(doc, -1)
	return append(spans, inlineRE.FindAllString(fencedRE.ReplaceAllString(doc, ""), -1)...)
}

// instructionSpans returns the parts of a Markdown document that give
// instructions rather than history: every heading, every fenced code block
// and every paragraph that begins with "Reproduce:".
func instructionSpans(doc string) []string {
	spans := fencedRE.FindAllString(doc, -1)
	rest := fencedRE.ReplaceAllString(doc, "")
	spans = append(spans, headingRE.FindAllString(rest, -1)...)
	return append(spans, reproduceRE.FindAllString(rest, -1)...)
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
// `pqbench <subcommand>` and `make <target>` they show must be a subcommand
// main dispatches or a .PHONY target of the Makefile. README.md and the
// verify skill are checked in every code span. DESIGN.md and EXPERIMENTS.md
// are checked only where they give instructions (instructionSpans): their
// history tables and prose may name retired commands.
func TestHowToDocsNameRealCommands(t *testing.T) {
	root := filepath.Join("..", "..")
	targets := phonyTargets(t, filepath.Join(root, "Makefile"))
	groups := []struct {
		spans func(string) []string
		docs  []string
	}{
		{codeSpans, []string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}},
		{instructionSpans, []string{"DESIGN.md", "EXPERIMENTS.md"}},
	}
	for _, g := range groups {
		checked := 0
		for _, doc := range g.docs {
			raw, err := os.ReadFile(filepath.Join(root, doc))
			if err != nil {
				t.Fatal(err)
			}
			for _, span := range g.spans(string(raw)) {
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
		}
		if checked == 0 {
			t.Errorf("%v: extracted no command tokens; the extractor is broken", g.docs)
		}
	}
}
