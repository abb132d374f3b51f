// Command docscheck enforces the repo's documentation gates without
// needing a staticcheck install:
//
//  1. Every package (root, cmd/*, internal/*, examples/*) carries
//     exactly one package comment in its non-test files — the same rule
//     CI's staticcheck ST1000 run enforces, plus a uniqueness check so
//     package docs have one home.
//  2. Every ```go fenced block in README.md compiles as a standalone
//     program inside this module, so quickstart snippets cannot rot.
//  3. Every *.md path named in a Go comment, in README.md or under docs/
//     is a file in the repository, so a pointer to a design note cannot
//     outlive (or precede) the note.
//
// Run from the repository root (`make docs-check`). Exits non-zero with
// one line per violation.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	ok := checkPackageComments()
	ok = checkReadmeSnippets("README.md") && ok
	ok = checkMarkdownRefs() && ok
	if !ok {
		os.Exit(1)
	}
	fmt.Println("docscheck: package comments, README snippets and *.md references OK")
}

// skipDir reports whether the walks ignore a directory: hidden ones,
// testdata, and the snippet build directories of a concurrent run.
func skipDir(path, name string) bool {
	return path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || strings.HasPrefix(name, "docscheck-"))
}

// checkPackageComments walks every package directory and requires
// exactly one package comment across its non-test files.
func checkPackageComments() bool {
	// dir -> files carrying a package doc comment
	docs := map[string][]string{}
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDir(path, d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		seen[dir] = true
		f, err := parser.ParseFile(token.NewFileSet(), path, nil,
			parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		if f.Doc != nil {
			docs[dir] = append(docs[dir], path)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		return false
	}
	dirs := make([]string, 0, len(seen))
	for dir := range seen {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	ok := true
	for _, dir := range dirs {
		switch n := len(docs[dir]); {
		case n == 0:
			fmt.Fprintf(os.Stderr, "docscheck: package %s has no package comment (ST1000)\n", dir)
			ok = false
		case n > 1:
			fmt.Fprintf(os.Stderr, "docscheck: package %s has %d package comments (%s) — keep one\n",
				dir, n, strings.Join(docs[dir], ", "))
			ok = false
		}
	}
	return ok
}

// checkReadmeSnippets extracts every ```go fenced block and builds it
// as its own main package in a throwaway directory inside the module
// (so `import "raven"` resolves against the working tree).
func checkReadmeSnippets(readme string) bool {
	src, err := os.ReadFile(readme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		return false
	}
	var snippets []string
	lines := strings.Split(string(src), "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```go" {
			continue
		}
		var body []string
		for i++; i < len(lines) && strings.TrimSpace(lines[i]) != "```"; i++ {
			body = append(body, lines[i])
		}
		snippets = append(snippets, strings.Join(body, "\n")+"\n")
	}
	if len(snippets) == 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %s has no ```go snippets — the quickstart is gone?\n", readme)
		return false
	}
	// Not dot-prefixed: the go tool ignores hidden directories, and the
	// snippet dirs must be visible to `go build`.
	tmp, err := os.MkdirTemp(".", "docscheck-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		return false
	}
	defer os.RemoveAll(tmp)
	ok := true
	for i, snip := range snippets {
		dir := filepath.Join(tmp, fmt.Sprintf("snippet%02d", i+1))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			return false
		}
		if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(snip), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			return false
		}
		cmd := exec.Command("go", "build", "-o", os.DevNull, "./"+dir)
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %s ```go snippet %d does not compile:\n%s",
				readme, i+1, out)
			ok = false
		}
	}
	return ok
}

// mdRef matches a path-like token ending in ".md" (not a bare "*.md").
var mdRef = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// checkMarkdownRefs requires every *.md path named in a Go comment (test
// files included), in README.md or in docs/*.md to exist, resolved against
// the repository root or the referencing file's own directory.
func checkMarkdownRefs() bool {
	ok := true
	check := func(path, text string) {
		for _, ref := range mdRef.FindAllString(text, -1) {
			_, rootErr := os.Stat(ref)
			_, relErr := os.Stat(filepath.Join(filepath.Dir(path), ref))
			if rootErr != nil && relErr != nil {
				fmt.Fprintf(os.Stderr, "docscheck: %s refers to %s, which is not a file in the repository\n", path, ref)
				ok = false
			}
		}
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDir(path, d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, ".go"):
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("parsing %s: %w", path, err)
			}
			for _, cg := range f.Comments {
				check(path, cg.Text())
			}
		case path == "README.md" || (filepath.Dir(path) == "docs" && strings.HasSuffix(path, ".md")):
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			check(path, string(src))
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		return false
	}
	return ok
}
