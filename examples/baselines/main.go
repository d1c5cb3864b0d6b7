// Baselines: head-to-head comparison of the five caching schemes of the
// paper's evaluation (MFG-CP, MFG, UDCS, MPC, RR) on one market workload —
// the Fig. 14 experiment in miniature.
package main

import (
	"context"
	"fmt"
	"log"

	mfgcp "repro"
)

func main() {
	policies := []mfgcp.Policy{
		mfgcp.NewMFGCPPolicy(),
		mfgcp.NewMFGPolicy(),
		mfgcp.NewUDCSPolicy(),
		mfgcp.NewMPCPolicy(),
		mfgcp.NewRRPolicy(),
	}

	fmt.Printf("%-8s %10s %10s %10s %10s %10s\n",
		"scheme", "utility", "trading", "sharing", "placement", "staleness")
	var mfgcpUtility, mpcUtility float64
	for _, pol := range policies {
		params := mfgcp.DefaultParams()
		params.M = 40
		params.K = 4
		cfg := mfgcp.DefaultMarketConfig(params, pol)
		cfg.Epochs = 2
		cfg.StepsPerEpoch = 25
		cfg.Seed = 11
		res, err := mfgcp.RunMarketContext(context.Background(), cfg)
		if err != nil {
			log.Fatalf("%s: %v", pol.Name(), err)
		}
		l := res.MeanLedger()
		u := res.MeanUtility()
		fmt.Printf("%-8s %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			pol.Name(), u, l.Trading, l.Sharing, l.Placement, l.Staleness)
		switch pol.Name() {
		case "MFG-CP":
			mfgcpUtility = u
		case "MPC":
			mpcUtility = u
		}
	}
	if mpcUtility != 0 {
		fmt.Printf("\nMFG-CP / MPC utility ratio: %.2f (paper reports 2.76 on its unit system)\n",
			mfgcpUtility/mpcUtility)
	}
}
