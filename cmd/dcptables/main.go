// Command dcptables prints the paper's analytic tables (Tables 1–4 and the
// Fig. 7 packet-rate model) — the results that follow from closed-form
// models rather than simulation. Simulation-backed tables come from
// cmd/dcpbench -run.
package main

import (
	"flag"
	"fmt"

	"dcpsim/internal/analytic"
)

func main() {
	table := flag.Int("table", 0, "print only table N (1-4), 7 for Fig 7; 0 = all")
	flag.Parse()

	all := map[int]func() string{
		1: func() string { return analytic.Table1().String() },
		2: func() string { return analytic.Table2().String() },
		3: func() string { return analytic.Table3(analytic.DefaultTracking()).String() },
		4: func() string { return analytic.Table4(analytic.DefaultResources()).String() },
		7: func() string { return analytic.Fig7(analytic.DefaultPPS(), nil).String() },
	}
	if *table == 0 {
		for _, k := range []int{1, 2, 3, 4, 7} {
			fmt.Println(all[k]())
		}
		return
	}
	if f, ok := all[*table]; ok {
		fmt.Println(f())
	} else {
		fmt.Println("unknown table; choose 1, 2, 3, 4 or 7")
	}
}
