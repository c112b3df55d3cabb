// Command proginfo prints Table II of the paper for this repository's
// benchmark suite: every program with its suite, package, description and
// the candidate-instruction counts for the inject-on-read and
// inject-on-write techniques, plus profile data (dynamic instructions,
// golden output size).
//
// Usage:
//
//	proginfo [-v]
//	proginfo -disasm sha  # print a program's IR listing
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"multiflip/internal/core"
	"multiflip/internal/ir"
	"multiflip/internal/prog"
)

func main() {
	verbose := flag.Bool("v", false, "also print per-program static instruction counts and disassembly sizes")
	disasm := flag.String("disasm", "", "print the IR disassembly of the named program and exit")
	flag.Parse()
	if *disasm != "" {
		if err := runDisasm(*disasm); err != nil {
			fmt.Fprintln(os.Stderr, "proginfo:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*verbose); err != nil {
		fmt.Fprintln(os.Stderr, "proginfo:", err)
		os.Exit(1)
	}
}

func runDisasm(name string) error {
	b, err := prog.ByName(name)
	if err != nil {
		return err
	}
	p, err := b.Build()
	if err != nil {
		return err
	}
	_, err = fmt.Print(ir.Disassemble(p))
	return err
}

func run(verbose bool) error {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "program\tsuite\tpackage\tinject-on-read\tinject-on-write\tdynamic\tgolden bytes")
	for _, b := range prog.All() {
		p, err := b.Build()
		if err != nil {
			return err
		}
		t, err := core.NewTarget(b.Name, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\n",
			b.Name, b.Suite, b.Package, t.ReadCands, t.WriteCands, t.GoldenDyn, len(t.Golden))
		if verbose {
			fmt.Fprintf(tw, "  static instrs: %d, funcs: %d, globals: %d bytes\t\t\t\t\t\t\n",
				p.StaticInstrs(), len(p.Funcs), len(p.Globals))
		}
	}
	return tw.Flush()
}
