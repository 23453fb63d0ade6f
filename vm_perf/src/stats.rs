//! Sample statistics and the two text formats the benchmark reads from
//! outside the program: `/proc/self/{stat,status}` and the cell's STATS
//! exposition.

use std::collections::BTreeMap;

/// Percentile `p` (0–100) of `sorted` by linear interpolation between order
/// statistics. An empty sample has no percentile and reads 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Percentile of an unsorted sample.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    percentile(&sorted(values), p)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 50.0)
}

/// The highest percentile a sample of `n` supports: the highest of 95, 90
/// and 75 that leaves at least ten samples beyond it, else the median. 95 is
/// the cap, because higher tails do not repeat on a two-core sandbox.
pub fn tail_percentile(n: usize) -> u32 {
    [95u32, 90, 75]
        .into_iter()
        .find(|p| n * (100 - *p as usize) >= 10 * 100)
        .unwrap_or(50)
}

/// Median throughput over `slices` equal slices of the work: `done_at[i]` is
/// the time, in seconds from the start, at which item `i` completed, and each
/// item carries `per_item` units. A host stall lands in one slice and leaves
/// the median alone, where total/elapsed would absorb it.
pub fn median_of_slices(done_at: &[f64], per_item: f64, slices: usize) -> f64 {
    let n = done_at.len();
    if n == 0 {
        return 0.0;
    }
    let slices = slices.clamp(1, n);
    let mut rates = Vec::with_capacity(slices);
    let mut prev_end = 0.0;
    for k in 0..slices {
        let (lo, hi) = (k * n / slices, (k + 1) * n / slices);
        let end = done_at[hi - 1];
        if end > prev_end {
            rates.push((hi - lo) as f64 * per_item / (end - prev_end));
        }
        prev_end = end;
    }
    median(&rates)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// exclusive method), so the spread computed here is the one the driver
/// computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need two values");
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        // As Python does it: clamp the index first, then take the weight from
        // the clamped index, which extrapolates at the ends of a short sample.
        let scaled = (i + 1) * (ld + 1);
        let j = (scaled / 4).clamp(1, ld - 1);
        let delta = scaled as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// `utime + stime` of the whole process in clock ticks, from the text of
/// `/proc/self/stat`. The command name may hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_proc_stat_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Microseconds per clock tick: `USER_HZ` is 100 on every Linux ABI.
pub const US_PER_TICK: f64 = 10_000.0;

/// Process CPU time so far, microseconds; 0 where `/proc` is missing.
pub fn process_cpu_us() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_proc_stat_ticks(&t))
        .map_or(0.0, |ticks| ticks as f64 * US_PER_TICK)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kib(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process, MiB; 0 where `/proc` is missing.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_vm_hwm_kib(&t))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// A parsed STATS exposition: `name{label="v"} value` lines by full name.
#[derive(Default)]
pub struct StatsText(BTreeMap<String, f64>);

impl StatsText {
    /// Parse the text; `None` if a non-empty line is not `name value`.
    pub fn parse(text: &str) -> Option<StatsText> {
        let mut map = BTreeMap::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let (name, value) = line.rsplit_once(' ')?;
            map.insert(name.trim_end().to_string(), value.parse().ok()?);
        }
        Some(StatsText(map))
    }

    /// A counter or gauge by full name; 0 when the cell never registered it.
    pub fn value(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn with_labels(base: &str, labels: &str, extra: &str) -> String {
        match (labels.is_empty(), extra.is_empty()) {
            (true, true) => base.to_string(),
            (true, false) => format!("{base}{{{extra}}}"),
            (false, true) => format!("{base}{{{labels}}}"),
            (false, false) => format!("{base}{{{labels},{extra}}}"),
        }
    }

    /// Median of the histogram `base{labels}`.
    pub fn hist_p50(&self, base: &str, labels: &str) -> f64 {
        self.value(&Self::with_labels(base, labels, "quantile=\"0.5\""))
    }

    /// Sum of the histogram `base{labels}`.
    pub fn hist_sum(&self, base: &str, labels: &str) -> f64 {
        self.value(&Self::with_labels(&format!("{base}_sum"), labels, ""))
    }

    /// Sample count of the histogram `base{labels}`.
    pub fn hist_count(&self, base: &str, labels: &str) -> f64 {
        self.value(&Self::with_labels(&format!("{base}_count"), labels, ""))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert!((percentile(&s, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_and_caps_at_95() {
        assert_eq!(tail_percentile(10_000), 95);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(99), 75);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(39), 50);
        assert_eq!(tail_percentile(0), 50);
    }

    #[test]
    fn slice_median_ignores_one_stall() {
        // 100 items, 1 ms each, except a 500 ms stall before item 40.
        let mut t = 0.0;
        let done: Vec<f64> = (0..100)
            .map(|i| {
                t += if i == 40 { 0.501 } else { 0.001 };
                t
            })
            .collect();
        let steady = median_of_slices(&done, 60.0, 20);
        assert!((steady - 60_000.0).abs() < 1.0, "slice median {steady}");
        let whole = 100.0 * 60.0 / done[99];
        assert!(whole < 11_000.0, "whole-run rate {whole} absorbs the stall");
        assert_eq!(median_of_slices(&[], 60.0, 20), 0.0);
        assert_eq!(median_of_slices(&[2.0], 60.0, 20), 30.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(relative_iqr(&v), 1.0);
        assert_eq!(relative_iqr(&[5.0]), 0.0);
    }

    #[test]
    fn proc_stat_counts_fields_after_the_command_name() {
        let text = "4242 (vm perf) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_proc_stat_ticks(text), Some(1300));
        assert_eq!(parse_proc_stat_ticks("no parenthesis"), None);
        assert_eq!(parse_proc_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let text = "Name:\tvm_perf\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(parse_vm_hwm_kib(text), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn stats_text_reads_counters_and_histograms() {
        let text = "vm_obs_snapshot_version 1\n\
                    vm_core_vps_stored_total 120240\n\
                    vm_store_append_us_count 7\n\
                    vm_store_append_us_sum 910\n\
                    vm_store_append_us{quantile=\"0.5\"} 128\n\
                    vm_service_request_us_count{op=\"submit\"} 2000\n\
                    vm_service_request_us_sum{op=\"submit\"} 1500000\n\
                    vm_service_request_us{op=\"submit\",quantile=\"0.5\"} 740\n\
                    vm_core_build_phase_us_sum{phase=\"keys\"} 12\n\
                    \n";
        let s = StatsText::parse(text).expect("parses");
        assert_eq!(s.value("vm_core_vps_stored_total"), 120_240.0);
        assert_eq!(s.value("vm_repl_shipped_ops_total"), 0.0);
        assert_eq!(s.hist_p50("vm_store_append_us", ""), 128.0);
        assert_eq!(s.hist_sum("vm_store_append_us", ""), 910.0);
        assert_eq!(s.hist_count("vm_store_append_us", ""), 7.0);
        assert_eq!(s.hist_p50("vm_service_request_us", "op=\"submit\""), 740.0);
        assert_eq!(
            s.hist_count("vm_service_request_us", "op=\"submit\""),
            2000.0
        );
        assert_eq!(s.hist_sum("vm_core_build_phase_us", "phase=\"keys\""), 12.0);
        assert!(StatsText::parse("name not-a-number").is_none());
        assert!(StatsText::parse("lonely").is_none());
    }
}
