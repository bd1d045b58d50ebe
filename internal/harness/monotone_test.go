package harness

import (
	"testing"
	"time"
)

func TestCheckLossMonotone(t *testing.T) {
	t.Parallel()
	good := []ScenarioRow{
		{KEM: "x25519", Sig: "rsa:2048", Latency: map[string]time.Duration{
			"none": 2 * time.Millisecond, "high-loss": 2 * time.Millisecond}},
		{KEM: "mlkem768", Sig: "rsa:2048", Latency: map[string]time.Duration{
			"none": 2 * time.Millisecond, "high-loss": 30 * time.Millisecond}},
		{KEM: "partial", Sig: "rsa:2048", Latency: map[string]time.Duration{
			"lte-m": time.Second}}, // rows without both scenarios are skipped
	}
	if err := CheckLossMonotone(good); err != nil {
		t.Errorf("monotone rows rejected: %v", err)
	}
	bad := []ScenarioRow{
		{KEM: "x25519", Sig: "rsa:2048", Latency: map[string]time.Duration{
			"none": 3 * time.Millisecond, "high-loss": 2 * time.Millisecond}},
	}
	if err := CheckLossMonotone(bad); err == nil {
		t.Error("loss-credits-time row passed the gate")
	}
}

// The gate must hold on real model output — the seed's model violated it
// (loss grew the congestion window, making high-loss beat loss-free).
func TestScenariosLossMonotoneEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sweep in short mode")
	}
	t.Parallel()
	rows, err := RunScenarios([]string{"x25519", "kyber512"}, nil,
		SweepConfig{Samples: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLossMonotone(rows); err != nil {
		t.Error(err)
	}
}
