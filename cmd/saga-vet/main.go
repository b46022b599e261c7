// Command saga-vet is the platform's invariant checker: a go/analysis
// multichecker bundling the analyzers under internal/lint, which turn the
// prose contracts of docs/INVARIANTS.md into diagnostics that fail the
// build.
//
// It speaks the `go vet -vettool` unitchecker protocol, which is how CI
// runs it:
//
//	go build -o /tmp/saga-vet ./cmd/saga-vet
//	go vet -vettool=/tmp/saga-vet ./...
//
// For convenience it also accepts package patterns directly — `go run
// ./cmd/saga-vet ./...` re-execs `go vet` with itself as the vettool, so
// one command works locally without a manual build step.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"saga/internal/lint/budgetgo"
	"saga/internal/lint/errdrop"
	"saga/internal/lint/sharedmut"
)

func main() {
	// Under `go vet -vettool` the driver invokes us with flags (-V=full
	// for the version handshake, analyzer flags) and a *.cfg file per
	// package; hand that protocol to the unitchecker. A bare package
	// pattern is a human asking to check packages: re-exec through go vet
	// with ourselves as the vettool.
	args := os.Args[1:]
	if len(args) > 0 && (strings.HasPrefix(args[0], "-") || strings.HasSuffix(args[0], ".cfg")) {
		unitchecker.Main(sharedmut.Analyzer, budgetgo.Analyzer, errdrop.Analyzer)
		return
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "saga-vet: locating own binary: %v\n", err)
		os.Exit(2)
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "saga-vet: %v\n", err)
		os.Exit(2)
	}
}
