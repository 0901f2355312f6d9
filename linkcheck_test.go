package mpichv_test

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mdLink matches inline markdown links; mdRef matches the "file.go:NN"
// cross-reference convention ARCHITECTURE.md uses for code anchors.
var (
	mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	mdRef  = regexp.MustCompile(`\[([\w./-]+\.go):(\d+)\]\(([^)\s]+)\)`)
)

// TestMarkdownLinks is the docs link checker: every relative link in the
// operator-facing markdown must resolve to a file in the repository, and
// every file.go:line cross-reference must name an existing file with at
// least that many lines, and the line must not be blank or a lone closing
// brace. It keeps ARCHITECTURE.md's code anchors from rotting as the code
// moves.
func TestMarkdownLinks(t *testing.T) {
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", "ROADMAP.md", "CHANGES.md"} {
		doc := doc
		t.Run(doc, func(t *testing.T) {
			data, err := os.ReadFile(doc)
			if err != nil {
				t.Fatalf("required doc missing: %v", err)
			}
			for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue // external; not checked offline
				}
				target = strings.SplitN(target, "#", 2)[0]
				if target == "" {
					continue // pure in-page anchor
				}
				if _, err := os.Stat(target); err != nil {
					t.Errorf("%s: dead link %q", doc, m[0])
				}
			}
			for _, m := range mdRef.FindAllStringSubmatch(string(data), -1) {
				file, lineStr, target := m[1], m[2], m[3]
				if !strings.HasSuffix(target, file) {
					t.Errorf("%s: ref %q links to %q, not to the named file", doc, m[0], target)
					continue
				}
				src, err := os.ReadFile(target)
				if err != nil {
					t.Errorf("%s: ref %q: %v", doc, m[0], err)
					continue
				}
				line, _ := strconv.Atoi(lineStr)
				lines := bytes.Split(src, []byte("\n"))
				if line < 1 || line > len(lines) {
					t.Errorf("%s: ref %q points past end of %s (%d lines)", doc, m[0], target, len(lines))
					continue
				}
				if text := string(bytes.TrimSpace(lines[line-1])); text == "" || text == "}" {
					t.Errorf("%s: ref %q lands on %q in %s, not on code it can name", doc, m[0], text, target)
				}
			}
		})
	}
}
