//! Free-memory statistics: the unaligned free-block size distribution used by
//! the paper's fragmentation-restraint experiment (Fig. 9).

use core::fmt;

use contig_types::{Pfn, BASE_PAGE_SIZE};

/// Size classes for free-run histograms, matching the buckets of Fig. 9.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SizeClass {
    /// Runs under 2 MiB.
    Under2M,
    /// Runs in [2 MiB, 32 MiB).
    From2MTo32M,
    /// Runs in [32 MiB, 1 GiB).
    From32MTo1G,
    /// Runs of at least 1 GiB.
    Over1G,
}

impl SizeClass {
    /// All classes in ascending order.
    pub const ALL: [SizeClass; 4] =
        [SizeClass::Under2M, SizeClass::From2MTo32M, SizeClass::From32MTo1G, SizeClass::Over1G];

    /// Classifies a run of `bytes` bytes.
    pub(crate) fn of_bytes(bytes: u64) -> Self {
        const MIB: u64 = 1 << 20;
        const GIB: u64 = 1 << 30;
        match bytes {
            b if b < 2 * MIB => SizeClass::Under2M,
            b if b < 32 * MIB => SizeClass::From2MTo32M,
            b if b < GIB => SizeClass::From32MTo1G,
            _ => SizeClass::Over1G,
        }
    }
}

impl fmt::Display for SizeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SizeClass::Under2M => "<2M",
            SizeClass::From2MTo32M => "2M-32M",
            SizeClass::From32MTo1G => "32M-1G",
            SizeClass::Over1G => ">1G",
        };
        f.write_str(s)
    }
}

/// Distribution of free memory over maximal unaligned free-run size classes.
///
/// # Examples
///
/// ```
/// use contig_buddy::{FreeBlockHistogram, SizeClass};
/// use contig_types::Pfn;
///
/// let h = FreeBlockHistogram::from_runs(vec![(Pfn::new(0), 512), (Pfn::new(1024), 64)]);
/// assert_eq!(h.total_free_bytes(), (512 + 64) * 4096);
/// assert!(h.fraction(SizeClass::From2MTo32M) > 0.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FreeBlockHistogram {
    bytes: [u64; 4],
    runs: [u64; 4],
}

impl FreeBlockHistogram {
    /// Builds the histogram from `(head, frames)` free runs.
    pub fn from_runs<I: IntoIterator<Item = (Pfn, u64)>>(runs: I) -> Self {
        let mut h = Self::default();
        for (_, frames) in runs {
            let bytes = frames * BASE_PAGE_SIZE;
            let class = SizeClass::of_bytes(bytes) as usize;
            h.bytes[class] += bytes;
            h.runs[class] += 1;
        }
        h
    }

    /// Total free bytes across all classes.
    pub fn total_free_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Number of maximal runs in one class.
    pub(crate) fn runs_in(&self, class: SizeClass) -> u64 {
        self.runs[class as usize]
    }

    /// Fraction of free memory residing in the class (0 when nothing is free).
    pub fn fraction(&self, class: SizeClass) -> f64 {
        let total = self.total_free_bytes();
        if total == 0 {
            0.0
        } else {
            self.bytes[class as usize] as f64 / total as f64
        }
    }
}

impl fmt::Display for FreeBlockHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for class in SizeClass::ALL {
            writeln!(
                f,
                "{:>7}: {:6.2}% ({} runs)",
                class.to_string(),
                self.fraction(class) * 100.0,
                self.runs_in(class)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_have_correct_boundaries() {
        const MIB: u64 = 1 << 20;
        assert_eq!(SizeClass::of_bytes(0), SizeClass::Under2M);
        assert_eq!(SizeClass::of_bytes(2 * MIB - 1), SizeClass::Under2M);
        assert_eq!(SizeClass::of_bytes(2 * MIB), SizeClass::From2MTo32M);
        assert_eq!(SizeClass::of_bytes(32 * MIB - 1), SizeClass::From2MTo32M);
        assert_eq!(SizeClass::of_bytes(32 * MIB), SizeClass::From32MTo1G);
        assert_eq!(SizeClass::of_bytes((1 << 30) - 1), SizeClass::From32MTo1G);
        assert_eq!(SizeClass::of_bytes(1 << 30), SizeClass::Over1G);
    }

    #[test]
    fn histogram_accumulates_runs() {
        let h = FreeBlockHistogram::from_runs(vec![
            (Pfn::new(0), 1),          // 4 KiB
            (Pfn::new(100), 512),      // 2 MiB
            (Pfn::new(10000), 262144), // 1 GiB
        ]);
        assert_eq!(h.runs_in(SizeClass::Under2M), 1);
        assert_eq!(h.runs_in(SizeClass::From2MTo32M), 1);
        assert_eq!(h.runs_in(SizeClass::Over1G), 1);
        assert_eq!(h.bytes[SizeClass::Over1G as usize], 1 << 30);
    }

    #[test]
    fn empty_histogram_has_zero_fractions() {
        let h = FreeBlockHistogram::default();
        for class in SizeClass::ALL {
            assert_eq!(h.fraction(class), 0.0);
        }
        assert_eq!(h.total_free_bytes(), 0);
    }

    #[test]
    fn display_mentions_every_class() {
        let text = FreeBlockHistogram::default().to_string();
        for class in SizeClass::ALL {
            assert!(text.contains(&class.to_string()));
        }
    }
}
