package simnet

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Profile holds the physical parameters of one measurement cluster
// from the paper's Table 1. Values are calibrated so the simulated
// baseline (RDMA read latency, link rates, switch buffering) matches
// the paper's reported hardware numbers (EXPERIMENTS.md prints each
// experiment's measured value beside the paper's).
type Profile struct {
	Name string

	// LinkGbps is the host (and ToR downlink) line rate.
	LinkGbps float64
	// UplinkGbps is the ToR↔spine link rate.
	UplinkGbps float64

	// MTU is the maximum frame size handed to the fabric, including
	// the 16-byte eRPC header.
	MTU int
	// WireOverhead is added to every frame on the wire (Ethernet +
	// IP + UDP framing; the paper counts a 32 B RPC as 92 B).
	WireOverhead int

	// PropDelay is the per-link propagation delay.
	PropDelay sim.Time
	// SwitchLatency is the cut-through port-to-port latency.
	SwitchLatency sim.Time
	// NICTxDelay/NICRxDelay model the PCIe + NIC pipeline on each
	// side; they add latency but do not occupy the CPU.
	NICTxDelay sim.Time
	NICRxDelay sim.Time

	// SwitchBufBytes is the shared dynamic buffer per switch (12 MB
	// on the paper's Mellanox Spectrum switches).
	SwitchBufBytes int
	// DTAlpha is the dynamic-threshold admission parameter: a port
	// may queue up to DTAlpha × (free shared buffer).
	DTAlpha float64
	// Lossless marks a PFC/InfiniBand-style fabric that never drops
	// on buffer pressure.
	Lossless bool

	// CPUScale scales all CPU cost-model charges; 1.0 is the CX4
	// cluster's Xeon E5-2640 v4 (the paper's primary testbed).
	CPUScale float64
	// SWPipeline is the per-packet latency of the software send path
	// that does NOT occupy the CPU (doorbell MMIO, DMA fetch, PCIe
	// round trip). It delays packets without reducing throughput,
	// and is calibrated per cluster so eRPC's latency exceeds RDMA's
	// by the paper's Table 2 deltas.
	SWPipeline sim.Time
	// RDMAProc is the remote-NIC processing time for one RDMA
	// operation, used by the rdmasim baseline.
	RDMAProc sim.Time
}

func (p Profile) validate() error {
	if p.LinkGbps <= 0 || p.MTU <= wire.HeaderSize {
		return fmt.Errorf("simnet: bad profile %+v", p)
	}
	if p.UplinkGbps == 0 {
		return fmt.Errorf("simnet: profile %s missing uplink rate", p.Name)
	}
	if !p.Lossless && (p.SwitchBufBytes <= 0 || p.DTAlpha <= 0) {
		return fmt.Errorf("simnet: lossy profile %s needs buffer config", p.Name)
	}
	return nil
}

// DataPerPkt returns the application data bytes per packet.
func (p Profile) DataPerPkt() int { return p.MTU - wire.HeaderSize }

// BDP returns the bandwidth-delay product in bytes for a same-fabric
// RTT of rtt.
func (p Profile) BDP(rtt sim.Time) int {
	return int(p.LinkGbps * float64(rtt) / 8)
}

// CX3 models the paper's 11-node InfiniBand cluster: 56 Gbps
// ConnectX-3, one SX6036 switch, lossless fabric, older Xeon E5-2650.
func CX3() Profile {
	return Profile{
		Name:           "CX3",
		LinkGbps:       56,
		UplinkGbps:     56,
		MTU:            4096 + wire.HeaderSize,
		WireOverhead:   30, // InfiniBand LRH/BTH framing
		PropDelay:      100 * sim.Nanosecond,
		SwitchLatency:  150 * sim.Nanosecond,
		NICTxDelay:     170 * sim.Nanosecond,
		NICRxDelay:     170 * sim.Nanosecond,
		SwitchBufBytes: 12 << 20,
		DTAlpha:        8,
		Lossless:       true,
		CPUScale:       1.30, // E5-2650: ~30% slower per-op than CX4's 2640 v4
		SWPipeline:     230 * sim.Nanosecond,
		RDMAProc:       250 * sim.Nanosecond,
	}
}

// CX4 models the paper's primary cluster: 100 nodes, 25 GbE ConnectX-4
// Lx, five SN2410 ToRs + one SN2100 spine (2:1 oversubscription),
// lossy Ethernet, 12 MB dynamic-buffer switches.
func CX4() Profile {
	return Profile{
		Name:           "CX4",
		LinkGbps:       25,
		UplinkGbps:     100,
		MTU:            1024 + wire.HeaderSize,
		WireOverhead:   44, // Ethernet + IPv4 + UDP
		PropDelay:      100 * sim.Nanosecond,
		SwitchLatency:  300 * sim.Nanosecond,
		NICTxDelay:     350 * sim.Nanosecond,
		NICRxDelay:     350 * sim.Nanosecond,
		SwitchBufBytes: 12 << 20,
		DTAlpha:        8,
		CPUScale:       1.0,
		SWPipeline:     520 * sim.Nanosecond,
		RDMAProc:       400 * sim.Nanosecond,
	}
}

// CX4Topology is the paper's CX4 fabric: five ToRs, each with 40
// 25 GbE downlinks and five 100 GbE uplinks (2:1 oversubscription);
// experiments populate up to 20 nodes per ToR, as CloudLab assigned
// the paper's 100 nodes.
func CX4Topology(nodesPerToR int) Topology {
	return Topology{NumToRs: 5, NodesPerToR: nodesPerToR, NumSpines: 5}
}

// CX5 models the 8-node 40 GbE ConnectX-5 cluster with one SX1036
// switch.
func CX5() Profile {
	return Profile{
		Name:           "CX5",
		LinkGbps:       40,
		UplinkGbps:     40,
		MTU:            4096 + wire.HeaderSize,
		WireOverhead:   44,
		PropDelay:      100 * sim.Nanosecond,
		SwitchLatency:  300 * sim.Nanosecond,
		NICTxDelay:     160 * sim.Nanosecond,
		NICRxDelay:     160 * sim.Nanosecond,
		SwitchBufBytes: 12 << 20,
		DTAlpha:        8,
		CPUScale:       0.92, // E5-2697 v3 / 2683 v4, slightly faster cores
		SWPipeline:     220 * sim.Nanosecond,
		RDMAProc:       300 * sim.Nanosecond,
	}
}

// CX5IB100 is the §6.4 configuration: two CX5 nodes connected to a
// 100 Gbps switch via ConnectX-5 InfiniBand for the bandwidth
// microbenchmark (Figure 6).
func CX5IB100() Profile {
	p := CX5()
	p.Name = "CX5-IB100"
	p.LinkGbps = 100
	p.UplinkGbps = 100
	p.Lossless = true
	p.WireOverhead = 30
	return p
}

// SingleSwitch returns a one-switch topology with n nodes, used for
// same-ToR latency tests and small clusters.
func SingleSwitch(n int) Topology {
	return Topology{NumToRs: 1, NodesPerToR: n, NumSpines: 0}
}
