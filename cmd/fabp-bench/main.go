// Command fabp-bench regenerates the paper's tables and figures from the
// calibrated models and the real implementations.
//
// Usage:
//
//	fabp-bench            # run everything
//	fabp-bench -exp fig6a # one experiment
//	fabp-bench -list      # list experiment ids
//
// Throughput and latency are measured by the layered benchmark under
// bench/ (bash bench/run.sh), not by this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"strings"

	"fabp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fabp-bench: ")

	exp := flag.String("exp", "", "experiment id (default: all)")
	format := flag.String("format", "text", "output format: text, markdown, csv")
	list := flag.Bool("list", false, "list experiment ids and exit")
	metrics := flag.Bool("metrics", false, "dump a telemetry snapshot as JSON after running")
	flag.Parse()

	if *metrics {
		defer func() {
			b, err := json.MarshalIndent(fabp.DefaultMetrics(), "", "  ")
			if err != nil {
				log.Fatalf("metrics: %v", err)
			}
			fmt.Printf("\n=== metrics\n%s\n", b)
		}()
	}
	if *list {
		fmt.Println(strings.Join(fabp.ExperimentNames(), "\n"))
		return
	}
	if *exp != "" {
		out, err := fabp.RunExperimentAs(*exp, *format)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
		return
	}
	for _, name := range fabp.ExperimentNames() {
		if *format == "text" {
			fmt.Printf("### %s\n\n", name)
		}
		out, err := fabp.RunExperimentAs(name, *format)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(out)
	}
}
