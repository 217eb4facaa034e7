// Command sspdot renders a program's analysis structures in Graphviz dot
// syntax: the control-flow graph of a function (with loop annotations), the
// dependence graph of a region — the way the paper draws Figure 3 — or the
// adapted binary's slice portfolio (one cluster per p-slice, rooted at its
// trigger site).
//
// Usage:
//
//	sspdot -bench mcf -func main -what cfg
//	sspdot -in prog.ssp -func main -what dep -block loop > dep.dot
//	sspdot -bench mcf.multi -scale test -what slices > portfolio.dot
//
// -what slices draws exp.Suite's adapted binary at the named scale, under
// the tool's default options; cfg and dep only load the program.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ssp/internal/cfg"
	"ssp/internal/cliutil"
	"ssp/internal/dep"
	"ssp/internal/exp"
	"ssp/internal/ir"
	"ssp/internal/ssp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sspdot:", err)
		os.Exit(1)
	}
}

func run(args []string, w, _ io.Writer) error {
	fs := flag.NewFlagSet("sspdot", flag.ExitOnError)
	var (
		in    = fs.String("in", "", "input assembly file")
		bench = fs.String("bench", "", "built-in benchmark name")
		scale = fs.String("scale", "paper", "experiment scale: paper or test")
		fn    = fs.String("func", "main", "function to render")
		what  = fs.String("what", "cfg", "what to render: cfg, dep, or slices")
		block = fs.String("block", "", "for -what dep: restrict to this block's instructions (default: whole function)")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with status 2
	input, err := cliutil.ReadInput(*in, *bench, *scale)
	if err != nil {
		return err
	}
	if *what == "slices" {
		adapted, rep, err := exp.NewSuite(input.Scale).Adapted(context.Background(), input.Bench, input.Src, ssp.DefaultOptions())
		if err != nil {
			return err
		}
		fmt.Fprint(w, slicesDot(adapted, rep))
		return nil
	}
	p, err := input.Load()
	if err != nil {
		return err
	}
	fnName := *fn
	f := p.FuncByName(fnName)
	if f == nil {
		return fmt.Errorf("function %q not found", fnName)
	}
	g, err := cfg.Build(f)
	if err != nil {
		return err
	}
	dom := cfg.Dominators(g)
	pdom := cfg.Postdominators(g)
	lf := cfg.FindLoops(g, dom)
	switch *what {
	case "cfg":
		fmt.Fprint(w, g.Dot(lf))
	case "dep":
		dg := dep.Build(p, f, g, dom, pdom)
		var nodes []int
		if *block == "" {
			for n := range dg.Nodes {
				nodes = append(nodes, n)
			}
		} else {
			b := f.BlockByLabel(*block)
			if b == nil {
				return fmt.Errorf("block %q not found in %s", *block, fnName)
			}
			for _, inr := range b.Instrs {
				if n := dg.NodeByID(inr.ID); n >= 0 {
					nodes = append(nodes, n)
				}
			}
		}
		fmt.Fprint(w, dg.Dot(fnName, nodes))
	default:
		return fmt.Errorf("unknown -what %q (want cfg, dep, or slices)", *what)
	}
	return nil
}

// slicesDot renders an adapted binary's slice portfolio: one cluster per
// emitted p-slice, holding the trigger site (the block whose chk.c arms the
// slice) and the attachment blocks the tool appended (the live-in stub and
// the slice bodies), with chk.c, spawn, and branch edges. Independent slices
// render as disjoint clusters, so a multi-phase benchmark shows one box per
// hot region.
func slicesDot(p *ir.Program, rep *ssp.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", "slices: "+rep.Benchmark)
	sb.WriteString("\tnode [shape=box, fontname=\"monospace\"];\n")
	for k, sl := range rep.Slices {
		stubLabel := fmt.Sprintf("ssp_stub_%d", k)
		slicePrefix := fmt.Sprintf("ssp_slice_%d", k)
		member := func(label string) bool {
			return label == stubLabel || label == slicePrefix ||
				strings.HasPrefix(label, slicePrefix+"_")
		}
		node := func(label string) string { return fmt.Sprintf("s%d_%s", k, label) }
		fnName, _, _ := strings.Cut(sl.Trigger, ".")
		fmt.Fprintf(&sb, "\tsubgraph cluster_slice_%d {\n", k)
		fmt.Fprintf(&sb, "\t\tlabel=\"slice %d: %s\\n%s, %d instrs, %d live-ins\";\n",
			k, sl.Region, sl.Model, sl.Size, sl.LiveIns)
		trig := fmt.Sprintf("s%d_trigger", k)
		fmt.Fprintf(&sb, "\t\t%s [label=\"trigger %s\", style=bold];\n", trig, sl.Trigger)
		f := p.FuncByName(fnName)
		if f == nil {
			// A malformed trigger name still yields a self-contained
			// cluster; the trigger node alone marks the gap.
			fmt.Fprintf(&sb, "\t}\n")
			continue
		}
		var blocks []*ir.Block
		for _, b := range f.Blocks {
			if member(b.Label) {
				blocks = append(blocks, b)
				fmt.Fprintf(&sb, "\t\t%s [label=\"%s (%d instrs)\"];\n", node(b.Label), b.Label, len(b.Instrs))
			}
		}
		// The chk.c instruction sits in the trigger block and arms the stub.
		fmt.Fprintf(&sb, "\t\t%s -> %s [label=\"chk.c\", style=dashed];\n", trig, node(stubLabel))
		for _, b := range blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpSpawn:
					if member(in.Target) {
						fmt.Fprintf(&sb, "\t\t%s -> %s [label=\"spawn\", color=blue];\n", node(b.Label), node(in.Target))
					}
				case ir.OpBr:
					if member(in.Target) {
						fmt.Fprintf(&sb, "\t\t%s -> %s;\n", node(b.Label), node(in.Target))
					}
				}
			}
		}
		fmt.Fprintf(&sb, "\t}\n")
	}
	sb.WriteString("}\n")
	return sb.String()
}
