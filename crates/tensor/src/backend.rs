//! Runtime-selected kernel backends: which instruction set the packed
//! GEMM micro-kernel (and its helpers) executes with.
//!
//! The backend is a process-wide selection made **once** at first use:
//!
//! 1. an explicit programmatic force ([`KernelBackend::force`], used by
//!    the `kernel_bench --backend` flag) wins,
//! 2. then the `CSP_KERNEL_BACKEND` environment variable
//!    (`scalar` / `sse2` / `avx2` / `avx2fma`; an unknown or unsupported
//!    name falls back to detection with a one-time warning),
//! 3. then runtime CPU detection via `is_x86_feature_detected!`: the
//!    best of AVX2 → SSE2 → scalar.
//!
//! [`with_backend`] additionally installs a scoped thread-local override
//! (the bit-identity proptests and the bench's backend×shape matrix use
//! it). The kernels read the backend **once per call on the calling
//! thread** and pass it by value into pool-dispatched closures, so a
//! scoped override applies consistently across worker threads.
//!
//! ## Determinism contract
//!
//! `Scalar`, `Sse2`, and `Avx2` are **bit-identical** to each other and
//! to [`crate::matmul_reference`]: the vector paths multiply then add
//! (two IEEE-754 single-rounded operations per lane, exactly like the
//! scalar loop), keep the exact-zero skip on `A`, and accumulate every
//! output element's `k` products in ascending order. `Avx2Fma` fuses the
//! multiply-add (one rounding instead of two) and is therefore **not**
//! bit-identical — it is never auto-selected, only opted into, and is
//! validated against the error bound documented at
//! [`KernelBackend::Avx2Fma`].

use crate::error::CspError;
use std::cell::Cell;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The CPU features the kernel layer cares about, as detected at runtime.
/// On non-x86_64 hosts every flag is `false` and only [`KernelBackend::Scalar`]
/// is supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// SSE2 (128-bit, 4 × f32 lanes). Baseline on x86_64.
    pub sse2: bool,
    /// AVX (256-bit registers; required by AVX2).
    pub avx: bool,
    /// AVX2 (256-bit integer + promoted FP lanes, 8 × f32).
    pub avx2: bool,
    /// FMA3 (fused multiply-add; changes rounding, see [`KernelBackend::Avx2Fma`]).
    pub fma: bool,
}

impl CpuFeatures {
    /// Detect the host's features (cached by the standard library).
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            CpuFeatures {
                sse2: std::arch::is_x86_feature_detected!("sse2"),
                avx: std::arch::is_x86_feature_detected!("avx"),
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                fma: std::arch::is_x86_feature_detected!("fma"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            CpuFeatures {
                sse2: false,
                avx: false,
                avx2: false,
                fma: false,
            }
        }
    }

    /// One-line human-readable summary (`sse2=true avx=true ...`).
    pub fn summary(&self) -> String {
        format!(
            "sse2={} avx={} avx2={} fma={}",
            self.sse2, self.avx, self.avx2, self.fma
        )
    }
}

/// Which micro-kernel implementation the tensor hot paths run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum KernelBackend {
    /// The portable reference loop nest — the golden model every vector
    /// path must match bit-for-bit. Always supported.
    Scalar = 0,
    /// 128-bit SSE2, 4 × f32 lanes, mul-then-add. Bit-identical to
    /// [`KernelBackend::Scalar`].
    Sse2 = 1,
    /// 256-bit AVX2, 8 × f32 lanes, mul-then-add. Bit-identical to
    /// [`KernelBackend::Scalar`].
    Avx2 = 2,
    /// 256-bit AVX2 with fused multiply-add. **Not bit-identical**: the
    /// fused operation rounds once where mul-then-add rounds twice, so
    /// per output element the divergence after `k` accumulation steps is
    /// bounded by `2·(k+1)·ε·Σₚ|aₚ·bₚ|` (ε = `f32::EPSILON`) — the bound
    /// the `prop_kernel_backends` suite asserts. Opt-in only
    /// (`CSP_KERNEL_BACKEND=avx2fma` or `--backend avx2fma`); never
    /// auto-selected, so the default configuration stays deterministic.
    Avx2Fma = 3,
}

/// All backends, worst to best (detection picks the last supported
/// non-FMA entry; the bench matrix walks every supported one).
pub const ALL_BACKENDS: [KernelBackend; 4] = [
    KernelBackend::Scalar,
    KernelBackend::Sse2,
    KernelBackend::Avx2,
    KernelBackend::Avx2Fma,
];

/// Process-wide forced backend: 0 = none, else `backend as u8 + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);
/// Lazily-resolved process selection (env override or detection).
static SELECTED: OnceLock<KernelBackend> = OnceLock::new();

thread_local! {
    /// Innermost [`with_backend`] override on this thread.
    static OVERRIDE: Cell<Option<KernelBackend>> = const { Cell::new(None) };
}

impl KernelBackend {
    /// Canonical name (`scalar` / `sse2` / `avx2` / `avx2fma`) — the
    /// accepted `CSP_KERNEL_BACKEND` / `--backend` spellings and the
    /// telemetry label.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Sse2 => "sse2",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx2Fma => "avx2fma",
        }
    }

    /// f32 lanes per vector operation (1 / 4 / 8 / 8).
    pub fn lanes(self) -> usize {
        match self {
            KernelBackend::Scalar => 1,
            KernelBackend::Sse2 => 4,
            KernelBackend::Avx2 | KernelBackend::Avx2Fma => 8,
        }
    }

    /// Whether this backend's results are bit-identical to
    /// [`KernelBackend::Scalar`] (everything except the fused-multiply-add
    /// variant).
    pub fn bit_identical_to_scalar(self) -> bool {
        self != KernelBackend::Avx2Fma
    }

    /// Whether the host CPU can run this backend.
    pub fn supported(self) -> bool {
        let f = CpuFeatures::detect();
        match self {
            KernelBackend::Scalar => true,
            KernelBackend::Sse2 => f.sse2,
            KernelBackend::Avx2 => f.avx2,
            KernelBackend::Avx2Fma => f.avx2 && f.fma,
        }
    }

    /// The best supported deterministic backend: AVX2, else SSE2, else
    /// scalar. FMA is never auto-selected (see [`KernelBackend::Avx2Fma`]).
    pub fn detect_best() -> KernelBackend {
        let f = CpuFeatures::detect();
        if f.avx2 {
            KernelBackend::Avx2
        } else if f.sse2 {
            KernelBackend::Sse2
        } else {
            KernelBackend::Scalar
        }
    }

    /// Every backend the host supports, worst to best (for bench
    /// matrices).
    pub fn supported_backends() -> Vec<KernelBackend> {
        ALL_BACKENDS.into_iter().filter(|b| b.supported()).collect()
    }

    /// The process-wide selection: `CSP_KERNEL_BACKEND` if set, valid and
    /// supported (unknown or unsupported names warn once on stderr and
    /// fall back), else [`KernelBackend::detect_best`]. Resolved once and
    /// cached; [`KernelBackend::force`] and [`with_backend`] take
    /// precedence over it.
    pub fn selected() -> KernelBackend {
        *SELECTED.get_or_init(|| {
            let best = KernelBackend::detect_best();
            match std::env::var("CSP_KERNEL_BACKEND") {
                Ok(v) => match v.trim().parse::<KernelBackend>() {
                    Ok(b) if b.supported() => b,
                    Ok(b) => {
                        eprintln!(
                            "CSP_KERNEL_BACKEND={}: backend {} not supported on this host \
                             ({}); using {}",
                            v,
                            b.name(),
                            CpuFeatures::detect().summary(),
                            best.name()
                        );
                        best
                    }
                    Err(e) => {
                        eprintln!("CSP_KERNEL_BACKEND={v}: {e}; using {}", best.name());
                        best
                    }
                },
                Err(_) => best,
            }
        })
    }

    /// The backend the current thread's kernel calls will use: the
    /// innermost [`with_backend`] override, else a [`KernelBackend::force`]d
    /// backend, else [`KernelBackend::selected`].
    pub fn current() -> KernelBackend {
        if let Some(b) = OVERRIDE.with(Cell::get) {
            return b;
        }
        match FORCED.load(Ordering::Relaxed) {
            0 => KernelBackend::selected(),
            1 => KernelBackend::Scalar,
            2 => KernelBackend::Sse2,
            3 => KernelBackend::Avx2,
            _ => KernelBackend::Avx2Fma,
        }
    }

    /// Force the process-wide backend by name (the `--backend` flag).
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Config`] for an unknown name or a backend the
    /// host CPU cannot run — forcing never silently falls back.
    pub fn force(name: &str) -> Result<KernelBackend, CspError> {
        let b = name
            .parse::<KernelBackend>()
            .map_err(|what| CspError::Config { what })?;
        if !b.supported() {
            return Err(CspError::Config {
                what: format!(
                    "kernel backend {} is not supported by this CPU ({})",
                    b.name(),
                    CpuFeatures::detect().summary()
                ),
            });
        }
        FORCED.store(b as u8 + 1, Ordering::Relaxed);
        Ok(b)
    }

    /// Effective weighted-dispatch unit cost for work that costs
    /// `scalar_cost` abstract units (≈ MACs) per element on the scalar
    /// backend: wider lanes finish the same element count sooner, so the
    /// `DEFAULT_GRAIN` cutoff must see proportionally less work or small
    /// problems would pay pool dispatch for sub-grain compute.
    pub fn unit_cost(self, scalar_cost: u64) -> u64 {
        (scalar_cost / self.lanes() as u64).max(1)
    }
}

impl FromStr for KernelBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(KernelBackend::Scalar),
            "sse2" => Ok(KernelBackend::Sse2),
            "avx2" => Ok(KernelBackend::Avx2),
            "avx2fma" | "avx2+fma" | "fma" => Ok(KernelBackend::Avx2Fma),
            other => Err(format!(
                "unknown kernel backend {other:?} (expected scalar|sse2|avx2|avx2fma)"
            )),
        }
    }
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Run `f` with this thread's kernel backend overridden to `backend`.
/// Restores the previous override on exit, also on panic; overrides
/// nest, innermost wins. The kernels capture the backend by value before
/// dispatching to pool workers, so the override covers parallel regions
/// started inside `f`.
///
/// # Panics
///
/// Panics if the host CPU does not support `backend` — an unsupported
/// vector path would fault at the first instruction, so refusing loudly
/// here is the only safe behaviour.
pub fn with_backend<R>(backend: KernelBackend, f: impl FnOnce() -> R) -> R {
    assert!(
        backend.supported(),
        "kernel backend {} not supported on this host ({})",
        backend.name(),
        CpuFeatures::detect().summary()
    );
    let prev = OVERRIDE.with(|c| c.replace(Some(backend)));
    let _guard = OverrideGuard { prev };
    f()
}

/// Restores the previous thread-local backend override.
struct OverrideGuard {
    prev: Option<KernelBackend>,
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        OVERRIDE.with(|c| c.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in ALL_BACKENDS {
            assert_eq!(b.name().parse::<KernelBackend>().unwrap(), b);
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(
            "AVX2".parse::<KernelBackend>().unwrap(),
            KernelBackend::Avx2
        );
        assert_eq!(
            "avx2+fma".parse::<KernelBackend>().unwrap(),
            KernelBackend::Avx2Fma
        );
        assert!("neon".parse::<KernelBackend>().is_err());
    }

    #[test]
    fn lanes_and_determinism_flags() {
        assert_eq!(KernelBackend::Scalar.lanes(), 1);
        assert_eq!(KernelBackend::Sse2.lanes(), 4);
        assert_eq!(KernelBackend::Avx2.lanes(), 8);
        assert_eq!(KernelBackend::Avx2Fma.lanes(), 8);
        assert!(KernelBackend::Avx2.bit_identical_to_scalar());
        assert!(!KernelBackend::Avx2Fma.bit_identical_to_scalar());
    }

    #[test]
    fn unit_cost_scales_with_lanes_but_never_hits_zero() {
        assert_eq!(KernelBackend::Scalar.unit_cost(512), 512);
        assert_eq!(KernelBackend::Sse2.unit_cost(512), 128);
        assert_eq!(KernelBackend::Avx2.unit_cost(512), 64);
        assert_eq!(KernelBackend::Avx2.unit_cost(3), 1);
        assert_eq!(KernelBackend::Avx2.unit_cost(0), 1);
    }

    #[test]
    fn detection_never_auto_selects_fma() {
        assert_ne!(KernelBackend::detect_best(), KernelBackend::Avx2Fma);
        assert!(KernelBackend::detect_best().bit_identical_to_scalar());
        assert!(KernelBackend::detect_best().supported());
        // Scalar is always in the supported set, and the set is ordered
        // worst to best.
        let sup = KernelBackend::supported_backends();
        assert_eq!(sup.first(), Some(&KernelBackend::Scalar));
    }

    #[test]
    fn force_rejects_unknown_names_with_typed_error() {
        match KernelBackend::force("warp9") {
            Err(CspError::Config { what }) => assert!(what.contains("warp9"), "{what}"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn with_backend_overrides_and_restores() {
        let outer = KernelBackend::current();
        with_backend(KernelBackend::Scalar, || {
            assert_eq!(KernelBackend::current(), KernelBackend::Scalar);
            if KernelBackend::Sse2.supported() {
                with_backend(KernelBackend::Sse2, || {
                    assert_eq!(KernelBackend::current(), KernelBackend::Sse2);
                });
            }
            assert_eq!(KernelBackend::current(), KernelBackend::Scalar);
        });
        assert_eq!(KernelBackend::current(), outer);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_64_always_supports_sse2() {
        assert!(CpuFeatures::detect().sse2);
        assert!(KernelBackend::Sse2.supported());
        assert_ne!(KernelBackend::detect_best(), KernelBackend::Scalar);
    }
}
