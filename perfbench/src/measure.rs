//! Process clocks, memory, order statistics and the host fingerprint.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of the whole process, every thread
/// included (also threads that already exited, such as the rayon
/// shim's scoped workers), at nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `#[repr(C)]` above), and
    // `clock_gettime` writes only that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of the process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Wall and CPU seconds of one timed section.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f`, returning its value with the wall and process-CPU time it
/// took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let cpu = cpu_seconds();
    let start = Instant::now();
    let value = f();
    let wall_s = start.elapsed().as_secs_f64();
    let sample = Sample {
        wall_s,
        cpu_s: cpu_seconds() - cpu,
    };
    (value, sample)
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `values`; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never
/// reached reads 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Caps every rayon-shim fan-out at the host's core count, so no pool
/// this process starts exceeds `nproc`. Runs before any thread starts.
pub fn pin_threads() {
    let cores = ahn_core::threads::host_cores();
    std::env::set_var("AHN_THREADS", cores.to_string());
}

/// The host fingerprint printed with every result: CPU model, cores,
/// the effective worker-thread count and the native-build probe.
pub fn host_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or("unknown", |(_, name)| name.trim());
    let nproc = ahn_core::threads::host_cores() as u64;
    let effective = ahn_core::threads::effective() as u64;
    let warning = ahn_bench::harness::portable_build_warning();
    let value = serde_json::json!({
        "host": {
            "cpu_model": model,
            "nproc": nproc,
            "effective_threads": effective,
            "portable_build_warning": warning
        }
    });
    serde_json::to_string(&value).expect("host fingerprint serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median([]), 0.0);
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.9), 5.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn process_clock_advances() {
        let (_, sample) = timed(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(sample.cpu_s > 0.0 && sample.wall_s > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
