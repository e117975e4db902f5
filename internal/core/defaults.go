package core

import (
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/sim"
)

// This file is the single home of device-derived iocost parameter
// derivation: ideal-profiling cost models for every device class and the
// §3.4-style hand-tuned QoS settings the auto-tuner races against. Every
// machine, experiment, fuzz scenario and tuning branch derives its defaults
// from these functions, so the "hand-tuned" column of the tuning comparison
// is byte-identical to what every other experiment runs with.

// IdealSSDParams derives linear cost-model parameters analytically from an
// SSD spec — what a perfect profiling run measures.
func IdealSSDParams(spec device.SSDSpec) LinearParams {
	p := float64(spec.Parallelism)
	return LinearParams{
		RBps:      spec.ReadBps,
		RSeqIOPS:  p / spec.SeqReadNS * 1e9,
		RRandIOPS: p / spec.RandReadNS * 1e9,
		WBps:      spec.SustainedWBp,
		WSeqIOPS:  p / spec.SeqWriteNS * 1e9,
		WRandIOPS: p / spec.RandWriteNS * 1e9,
	}
}

// IdealHDDParams derives cost-model parameters for a spinning disk.
func IdealHDDParams(spec device.HDDSpec) LinearParams {
	randNS := spec.MinSeekNS + (spec.FullSeekNS-spec.MinSeekNS)*0.45 + 0.5*60e9/spec.RPM
	seqNS := spec.SeqOverheadNS + 4096/spec.MediaBps*1e9
	return LinearParams{
		RBps:      spec.MediaBps,
		RSeqIOPS:  1e9 / seqNS,
		RRandIOPS: 1e9 / randNS,
		WBps:      spec.MediaBps,
		WSeqIOPS:  1e9 / seqNS,
		WRandIOPS: 1e9 / randNS,
	}
}

// IdealRemoteParams derives cost-model parameters for a cloud volume: the
// provisioned IOPS and throughput are the capability.
func IdealRemoteParams(spec device.RemoteSpec) LinearParams {
	iops := spec.IOPS
	if iops == 0 {
		iops = 100000
	}
	return LinearParams{
		RBps: spec.Bps, RSeqIOPS: iops, RRandIOPS: iops,
		WBps: spec.Bps, WSeqIOPS: iops, WRandIOPS: iops,
	}
}

// HandTunedSSD returns §3.4-style QoS parameters for an SSD spec: latency
// targets a small multiple of the device's loaded operating point in each
// direction, vrate free within a moderate band. The write target must be
// derived from the device's sustained (buffer-exhausted) write service
// time, or it is unachievable under any write load and pins vrate at the
// minimum.
func HandTunedSSD(spec device.SSDSpec) QoS {
	unloadedR := device.New4kLatencyHint(spec)
	wService := spec.RandWriteNS
	if sustained := 128 << 10 * float64(spec.Parallelism) / spec.SustainedWBp * 1e9; sustained > wService {
		wService = sustained
	}
	return QoS{
		RPct: 90, RLat: 5 * unloadedR,
		WPct: 90, WLat: 8 * sim.Time(wService),
		VrateMin: 0.5, VrateMax: 1.5,
	}
}

// HandTunedHDD returns the spinning-disk QoS defaults: seek-dominated
// service times need targets in the tens of milliseconds, and the vrate
// band sits low because the cost model's seq/rand split overestimates what
// mixed workloads extract from one actuator arm.
func HandTunedHDD() QoS {
	return QoS{
		RPct: 90, RLat: 15 * sim.Millisecond,
		WPct: 90, WLat: 40 * sim.Millisecond,
		VrateMin: 0.1, VrateMax: 1.2,
	}
}

// HandTunedRemote returns QoS defaults for a cloud volume, scaled from its
// round-trip time.
func HandTunedRemote(spec device.RemoteSpec) QoS {
	rtt := sim.Time(spec.RTTNS)
	return QoS{
		RPct: 90, RLat: 6 * rtt,
		WPct: 90, WLat: 10 * rtt,
		VrateMin: 0.25, VrateMax: 1.5,
	}
}
