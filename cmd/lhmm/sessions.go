package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	lhmm "repro"
)

// lhmm sessions — operator tooling for lhmm-serve's durable streaming
// sessions. `inspect` summarizes a snapshot file from a -checkpoint-dir
// store (or its quarantine) without needing the dataset or model: the
// full structural validation runs, so a file inspect accepts is one
// recovery would at most reject for model mismatch or staleness.
func cmdSessions(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: lhmm sessions inspect <snapshot.ckpt> [-json]")
	}
	switch args[0] {
	case "inspect":
		return cmdSessionsInspect(args[1:])
	default:
		return fmt.Errorf("unknown sessions subcommand %q (want inspect)", args[0])
	}
}

func cmdSessionsInspect(args []string) error {
	fs := flag.NewFlagSet("sessions inspect", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the summary as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: lhmm sessions inspect <snapshot.ckpt> [-json]")
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	info, err := lhmm.InspectSessionSnapshot(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(info)
	}
	fmt.Printf("%s: lhmm-session/v%d, %d bytes\n", path, info.Version, info.Bytes)
	fmt.Printf("session:   %s (lag %d, on-break %s, sanitize %s)\n", info.ID, info.Lag, info.OnBreak, info.Sanitize)
	fmt.Printf("points:    %d (%d emitted, %d pending, %d dead)\n", info.Points, info.Emitted, info.Pending, info.DeadPoints)
	fmt.Printf("gaps:      %d\n", info.Gaps)
	fmt.Printf("degraded:  %d scoring fallbacks\n", info.Degraded)
	if info.BadCoords+info.BadTimes > 0 {
		fmt.Printf("sanitized: %d bad coords, %d bad times dropped\n", info.BadCoords, info.BadTimes)
	}
	fmt.Printf("last t:    %v\n", info.LastT)
	fmt.Printf("model:     config %s, weights %s\n", info.Fingerprint, info.WeightsHash)
	return nil
}
