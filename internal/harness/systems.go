// Package harness assembles the systems under test and regenerates every
// table and figure of the paper's evaluation (§5). Each figure has a
// FigureN function returning a formatted table plus the raw series, so
// the same code backs the hinfs-bench CLI, the root-level Go benchmarks,
// and EXPERIMENTS.md.
package harness

import (
	"fmt"
	"time"

	"hinfs/internal/blockdev"
	"hinfs/internal/buffer"
	"hinfs/internal/core"
	"hinfs/internal/extfs"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
	"hinfs/internal/obs/flight"
	"hinfs/internal/pmfs"
	"hinfs/internal/vfs"
)

// System identifies a file system under test (paper Table 3 plus the
// HiNFS variants).
type System string

// The systems of the evaluation.
const (
	HiNFS      System = "hinfs"
	HiNFSNCLFW System = "hinfs-nclfw"
	HiNFSWB    System = "hinfs-wb"
	PMFS       System = "pmfs"
	EXT4DAX    System = "ext4-dax"
	EXT2NVMMBD System = "ext2-nvmmbd"
	EXT4NVMMBD System = "ext4-nvmmbd"
)

// AllBaselines is the five-system lineup of Figs. 7 and 8.
var AllBaselines = []System{HiNFS, PMFS, EXT4DAX, EXT2NVMMBD, EXT4NVMMBD}

// TraceSystems is the six-system lineup of Figs. 12 and 13.
var TraceSystems = []System{HiNFS, HiNFSWB, PMFS, EXT4DAX, EXT2NVMMBD, EXT4NVMMBD}

// Config describes the experimental environment (paper Table 2, scaled).
type Config struct {
	// DeviceSize is the emulated NVMM capacity (default 256 MB).
	DeviceSize int64
	// WriteLatency is the NVMM write latency per cacheline (default 200 ns).
	WriteLatency time.Duration
	// ReadLatency models the per-cacheline cost of copying from NVMM to
	// the user buffer (default 10 ns). The paper's emulator adds no read
	// latency because its reads run at real memcpy speed; here delays are
	// time-scaled, so an explicit copy cost keeps the read:write time
	// ratio at the paper's scale.
	ReadLatency time.Duration
	// WriteBandwidth caps NVMM write bandwidth (default 1 GB/s).
	WriteBandwidth int64
	// BufferBlocks is HiNFS's DRAM buffer capacity (default 4864 blocks =
	// 19 MB ≈ 0.4× the fileserver dataset, the paper's 2 GB : 5 GB ratio).
	BufferBlocks int
	// BufferShards is the number of independent DRAM buffer shards
	// (0 = one per GOMAXPROCS, capped by pool size; see buffer.Config).
	BufferShards int
	// CachePages is the page cache size for the NVMMBD baselines (default
	// 4096 pages = 16 MB ≈ 1/3 of the fileserver dataset; at the paper's
	// scale the sustained write stream far exceeds what the 3 GB system
	// memory can hold dirty, so the cache must be small relative to the
	// run's write volume for the same steady-state to appear).
	CachePages int
	// BlockOverhead is the per-request generic block layer cost: bio
	// allocation, queueing, submission and completion (default 12 µs,
	// in line with Linux 3.x block-layer measurements on RAM-backed
	// devices, which the paper's NVMMBD modifies).
	BlockOverhead time.Duration
	// SyscallOverhead is charged on every file operation to model the
	// user/kernel crossing and VFS dispatch the paper's "Others" category
	// contains (default 1.5 µs).
	SyscallOverhead time.Duration
	// MaxInodes bounds the inode tables (default 16384).
	MaxInodes int64
	// TimeScale multiplies every emulated delay (default 16). Scaling makes
	// delays long enough to sleep through, so emulated device time overlaps
	// across goroutines even on machines with few cores; every figure
	// reports ratios, which scaling preserves. Set 1 for real-time scale.
	TimeScale float64
	// FlightBlocks reserves an NVMM flight-recorder region of this many
	// 4 KiB blocks at format time (0 = none). Applies to the HiNFS
	// variants and PMFS; the recorder is exposed as Instance.Flight for
	// wiring into a server front-end (server.Config.Flight).
	FlightBlocks int64
	// Observe attaches an obs.Collector to the instance: op-class
	// latency histograms at the VFS boundary (all systems), decision-path
	// histograms inside HiNFS, and device flush latency. The
	// collector is registered in obs.Default (for -debug-addr scrapes)
	// and snapshotted into RunResult.Obs. Off by default.
	Observe bool
}

// Fill applies defaults.
func (c *Config) Fill() {
	if c.DeviceSize == 0 {
		c.DeviceSize = 256 << 20
	}
	if c.WriteLatency == 0 {
		c.WriteLatency = 200 * time.Nanosecond
	}
	if c.ReadLatency == 0 {
		c.ReadLatency = 10 * time.Nanosecond
	}
	if c.WriteBandwidth == 0 {
		c.WriteBandwidth = 1 << 30
	}
	if c.BufferBlocks == 0 {
		c.BufferBlocks = 4864
	}
	if c.CachePages == 0 {
		c.CachePages = 4096
	}
	if c.BlockOverhead == 0 {
		c.BlockOverhead = 12 * time.Microsecond
	}
	if c.SyscallOverhead == 0 {
		c.SyscallOverhead = 1500 * time.Nanosecond
	}
	if c.MaxInodes == 0 {
		c.MaxInodes = 16384
	}
	if c.TimeScale == 0 {
		c.TimeScale = 16
	}
}

// Instance is a mounted system under test.
type Instance struct {
	System System
	FS     vfs.FileSystem
	Dev    *nvmm.Device
	// HiNFS is non-nil for the HiNFS variants (stats access).
	HiNFS *core.FS
	// Ext is non-nil for the extfs-based systems.
	Ext *extfs.FS
	// Obs is the instance's collector (nil unless Config.Observe).
	Obs *obs.Collector
	// Flight is the NVMM flight recorder (nil unless Config.FlightBlocks
	// was set and the system persists one — HiNFS variants and PMFS).
	Flight *flight.Recorder
}

// NewInstance formats a fresh emulated device and mounts the requested
// system on it.
func NewInstance(sys System, cfg Config) (*Instance, error) {
	cfg.Fill()
	dev, err := nvmm.New(nvmm.Config{
		Size:           cfg.DeviceSize,
		WriteLatency:   cfg.WriteLatency,
		ReadLatency:    cfg.ReadLatency,
		WriteBandwidth: cfg.WriteBandwidth,
		TimeScale:      cfg.TimeScale,
	})
	if err != nil {
		return nil, err
	}
	inst := &Instance{System: sys, Dev: dev}
	if cfg.Observe {
		inst.Obs = obs.New()
		dev.SetObs(inst.Obs)
		obs.Default.RegisterCollector(string(sys), inst.Obs)
	}
	switch sys {
	case HiNFS, HiNFSNCLFW, HiNFSWB:
		fs, err := core.Mkfs(dev, core.Options{
			BufferBlocks:        cfg.BufferBlocks,
			DisableCLFW:         sys == HiNFSNCLFW,
			DisableEagerChecker: sys == HiNFSWB,
			Buffer:              buffer.Config{Shards: cfg.BufferShards},
			PMFS:                pmfs.Options{MaxInodes: cfg.MaxInodes, FlightBlocks: cfg.FlightBlocks},
			Obs:                 inst.Obs,
		})
		if err != nil {
			return nil, err
		}
		inst.HiNFS = fs
		inst.FS = fs
		inst.Flight = fs.Flight()
	case PMFS:
		fs, err := pmfs.Mkfs(dev, pmfs.Options{MaxInodes: cfg.MaxInodes, FlightBlocks: cfg.FlightBlocks})
		if err != nil {
			return nil, err
		}
		fs.SetObs(inst.Obs)
		inst.FS = fs
		inst.Flight = fs.Flight()
	case EXT4DAX, EXT2NVMMBD, EXT4NVMMBD:
		fs, err := extfs.Mkfs(dev, extfs.Options{
			Journal:     sys != EXT2NVMMBD,
			DAX:         sys == EXT4DAX,
			MaxInodes:   cfg.MaxInodes,
			CachePages:  cfg.CachePages,
			BlockConfig: blockdev.Config{RequestOverhead: scaled(cfg.BlockOverhead, cfg.TimeScale)},
			Obs:         inst.Obs,
		})
		if err != nil {
			return nil, err
		}
		inst.Ext = fs
		inst.FS = fs
	default:
		return nil, fmt.Errorf("harness: unknown system %q", sys)
	}
	if cfg.SyscallOverhead > 0 {
		inst.FS = WithSyscallOverhead(inst.FS, scaled(cfg.SyscallOverhead, cfg.TimeScale))
	}
	// The obs wrapper sits outermost so op-class latencies include the
	// modelled syscall overhead — the user-visible latency.
	inst.FS = obs.WrapFS(inst.FS, inst.Obs)
	return inst, nil
}

// scaled multiplies a model delay by the time scale.
func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// Close unmounts the instance.
func (i *Instance) Close() error { return i.FS.Unmount() }

// WithSyscallOverhead wraps fs so every operation pays a fixed software
// cost, modelling syscall entry/exit and VFS dispatch (the dominant part
// of Fig. 1's "Others" at small I/O sizes).
func WithSyscallOverhead(fs vfs.FileSystem, d time.Duration) vfs.FileSystem {
	return vfs.Intercept(fs, syscallCost(d))
}

// syscallCost is the vfs.Observer behind WithSyscallOverhead: it waits
// out the emulated delay before each operation is passed on.
type syscallCost time.Duration

func (d syscallCost) Begin(vfs.Op) { nvmm.Wait(time.Duration(d)) }
func (syscallCost) End(vfs.Call)   {}
