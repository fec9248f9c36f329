package radio

// ASKModem describes the AP's amplitude-shift-keyed downlink. The paper
// uses a 160 kbps ASK query that doubles as the timing reference for all
// concurrent devices; tags receive it with a microwatt envelope detector
// (§3.3, §4.1). The simulator needs only its airtime.
type ASKModem struct {
	// BitRate in bits/s (160 kbps in the paper).
	BitRate float64
}

// DefaultASK is the paper's 160 kbps downlink.
var DefaultASK = ASKModem{BitRate: 160e3}

// Duration returns the on-air time of n bits in seconds.
func (m ASKModem) Duration(nBits int) float64 {
	return float64(nBits) / m.BitRate
}
