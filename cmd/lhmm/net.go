package main

// lhmm net — road-network tooling around the binary LNET format.
//
//	lhmm net build -data dataset.json -out network.lnet
//	lhmm net stat  -in network.lnet
//
// build compiles a road network into the flat binary format that loads
// in milliseconds at paper scale; stat loads one back and prints its
// size and extent.

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/roadnet"
)

func cmdNet(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: lhmm net <build|stat> [flags]")
	}
	switch args[0] {
	case "build":
		return cmdNetBuild(args[1:])
	case "stat":
		return cmdNetStat(args[1:])
	default:
		return fmt.Errorf("unknown net subcommand %q (want build or stat)", args[0])
	}
}

func cmdNetBuild(args []string) error {
	fs := flag.NewFlagSet("net build", flag.ExitOnError)
	data := fs.String("data", "", "dataset file to take the road network from ('-' for stdin)")
	netIn := fs.String("net", "", "bare road-network JSON file (alternative to -data)")
	out := fs.String("out", "network.lnet", "output binary network file")
	cleanup, err := parseWithObs(fs, args)
	if err != nil {
		return err
	}
	defer cleanup()

	var n *roadnet.Network
	switch {
	case *data != "" && *netIn != "":
		return fmt.Errorf("give either -data or -net, not both")
	case *data != "":
		ds, err := loadDataset(*data)
		if err != nil {
			return err
		}
		n = ds.Net
	case *netIn != "":
		f, err := os.Open(*netIn)
		if err != nil {
			return err
		}
		n, err = roadnet.Read(f)
		f.Close()
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -data or -net")
	}
	fmt.Printf("network: %d nodes, %d segments\n", n.NumNodes(), n.NumSegments())

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := roadnet.WriteBinary(f, n); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%.1f MB)\n", *out, float64(st.Size())/(1<<20))
	return nil
}

func cmdNetStat(args []string) error {
	fs := flag.NewFlagSet("net stat", flag.ExitOnError)
	in := fs.String("in", "network.lnet", "binary network file")
	cleanup, err := parseWithObs(fs, args)
	if err != nil {
		return err
	}
	defer cleanup()

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	start := time.Now()
	n, err := roadnet.ReadBinary(f)
	if err != nil {
		return err
	}
	loadMS := time.Since(start).Seconds() * 1e3

	fmt.Printf("%s: %.1f MB, loaded in %.0fms\n", *in, float64(st.Size())/(1<<20), loadMS)
	fmt.Printf("nodes:     %d\n", n.NumNodes())
	fmt.Printf("segments:  %d\n", n.NumSegments())
	b := n.Bounds()
	fmt.Printf("bounds:    %.0fm x %.0fm\n", b.Max.X-b.Min.X, b.Max.Y-b.Min.Y)
	return nil
}
