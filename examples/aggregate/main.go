// Aggregate: the bandwidth-aggregation mode of §3.1 (Fig. 5). To double
// the device count without halving anyone's bitrate, NetScatter doubles
// the band: devices chirp with the same slope across an aggregate 2·BW
// band, aliasing at the band edge, and the AP decodes the whole
// aggregate with a single double-size FFT — no per-band filters, no
// second FFT.
package main

import (
	"fmt"
	"log"

	"netscatter"
)

func main() {
	// Single band: SF 7 over 125 kHz -> 64 slots at SKIP 2.
	single := netscatter.Params{SF: 7, BandwidthHz: 125e3, Skip: 2, Oversample: 1}
	// Aggregate: same chirp slope and per-device bitrate, twice the
	// band, twice the devices.
	aggregate := netscatter.Params{SF: 7, BandwidthHz: 125e3, Skip: 2, Oversample: 2}

	fmt.Printf("single band:    %3d devices at %.0f bps each\n",
		single.MaxDevices(), single.DeviceBitRate())
	fmt.Printf("aggregate band: %3d devices at %.0f bps each (one FFT for all)\n\n",
		aggregate.MaxDevices(), aggregate.DeviceBitRate())

	net, err := netscatter.NewNetwork(aggregate, netscatter.Options{
		Devices:      aggregate.MaxDevices(),
		Seed:         3,
		PayloadBytes: 2,
	})
	if err != nil {
		log.Fatal(err)
	}

	payloads := map[int][]byte{}
	for i := 0; i < aggregate.MaxDevices(); i++ {
		payloads[i] = []byte{byte(i), byte(i ^ 0x5A)}
	}
	round, err := net.Run(payloads)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregate round: %d/%d devices decoded in %.1f ms with %d FFTs\n",
		len(round.Payloads), aggregate.MaxDevices(), round.Duration*1e3, round.FFTs)
	fmt.Printf("aggregate throughput: %.1f kbps over %.0f kHz\n",
		net.AggregateThroughput()/1e3, 2*aggregate.BandwidthHz/1e3)
}
