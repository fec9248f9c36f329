package css

import (
	"math"
	"testing"

	"netscatter/internal/chirp"
)

var tp = chirp.Params{SF: 7, BW: 125e3, Oversample: 1}

func TestSensitivityTable1(t *testing.T) {
	// The paper's Table 1 sensitivities (the SF 6 row deviates by 2 dB
	// from the 3 dB/SF rule; see EXPERIMENTS.md).
	cases := []struct {
		p    chirp.Params
		want float64
	}{
		{chirp.Params{SF: 9, BW: 500e3, Oversample: 1}, -123},
		{chirp.Params{SF: 8, BW: 500e3, Oversample: 1}, -120},
		{chirp.Params{SF: 8, BW: 250e3, Oversample: 1}, -123},
		{chirp.Params{SF: 7, BW: 250e3, Oversample: 1}, -120},
		{chirp.Params{SF: 7, BW: 125e3, Oversample: 1}, -123},
	}
	for _, tc := range cases {
		if got := SensitivityDBm(tc.p); math.Abs(got-tc.want) > 0.6 {
			t.Errorf("sensitivity(%s) = %.1f, want %.0f", tc.p, got, tc.want)
		}
	}
}

func TestTable1ConfigsBitrates(t *testing.T) {
	for i, p := range Table1Configs() {
		want := 976.5625
		if i%2 == 1 {
			want = 1953.125
		}
		if got := p.OOKBitRate(); math.Abs(got-want) > 0.01 {
			t.Errorf("config %d bitrate = %v, want %v", i, got, want)
		}
	}
}

func TestDemodSNRFloorMonotonic(t *testing.T) {
	// Each extra SF buys sensitivity.
	for sf := 7; sf <= 12; sf++ {
		if DemodSNRFloorDB(sf) >= DemodSNRFloorDB(sf-1) {
			t.Fatalf("SNR floor not improving at SF %d", sf)
		}
	}
	if got := DemodSNRFloorDB(9); got != -12 {
		t.Fatalf("SF9 floor = %v, want -12 (anchors -123 dBm)", got)
	}
}

func TestRateTableAndBestRate(t *testing.T) {
	opts := RateTable(500e3)
	if len(opts) != 7 {
		t.Fatalf("rate table size %d", len(opts))
	}
	// High SNR picks the fastest (capped) rate.
	best, ok := BestRate(20, opts)
	if !ok || best.BitRate != MaxLoRaBitRate {
		t.Fatalf("high-SNR rate = %v", best.BitRate)
	}
	// Low SNR picks a robust slow rate.
	best, ok = BestRate(-19, opts)
	if !ok || best.Params.SF != 12 {
		t.Fatalf("low-SNR pick = SF%d", best.Params.SF)
	}
	// Below every floor: not servable.
	if _, ok := BestRate(-30, opts); ok {
		t.Fatal("-30 dB should not be servable")
	}
	// Monotonic: higher SNR never picks a slower rate.
	prev := 0.0
	for snr := -25.0; snr <= 10; snr += 0.5 {
		b, ok := BestRate(snr, opts)
		if !ok {
			continue
		}
		if b.BitRate < prev {
			t.Fatalf("rate decreased at %v dB", snr)
		}
		prev = b.BitRate
	}
}
