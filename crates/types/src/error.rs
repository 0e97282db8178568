//! Error types shared across the workspace.

use core::fmt;
use std::error::Error;

use crate::addr::VirtAddr;
use crate::page::{PageSize, Pfn};

/// Failure of a physical-memory allocation request.
///
/// # Examples
///
/// ```
/// use contig_types::AllocError;
/// let err = AllocError::OutOfMemory { order: 9 };
/// assert!(err.to_string().contains("order 9"));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AllocError {
    /// No free block of the requested order exists in the zone.
    OutOfMemory {
        /// Buddy order of the failed request.
        order: u32,
    },
    /// A targeted allocation found the requested frame already in use.
    TargetBusy {
        /// The frame that was requested and found occupied.
        target: Pfn,
    },
    /// The requested frame lies outside the zone.
    OutOfZone {
        /// The offending frame.
        target: Pfn,
    },
    /// A targeted allocation asked for a block not naturally aligned to its
    /// order. This is a placement-policy bug, but a robust allocator reports
    /// it as an error rather than panicking the fault path.
    Unaligned {
        /// The misaligned frame.
        target: Pfn,
        /// The requested buddy order.
        order: u32,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { order } => {
                write!(f, "no free block of order {order} available")
            }
            AllocError::TargetBusy { target } => {
                write!(f, "targeted frame {target} is already allocated")
            }
            AllocError::OutOfZone { target } => {
                write!(f, "frame {target} lies outside the physical zone")
            }
            AllocError::Unaligned { target, order } => {
                write!(f, "targeted frame {target} unaligned for order {order}")
            }
        }
    }
}

impl Error for AllocError {}

/// Failure of a page-fault service request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultError {
    /// The faulting address is not covered by any VMA (a segfault).
    UnmappedAddress {
        /// The faulting virtual address.
        addr: VirtAddr,
    },
    /// The backing allocator ran out of physical memory.
    OutOfMemory {
        /// The faulting virtual address.
        addr: VirtAddr,
        /// Page size that was being allocated.
        size: PageSize,
    },
    /// The page is already present (spurious fault).
    AlreadyMapped {
        /// The faulting virtual address.
        addr: VirtAddr,
    },
    /// A hardware memory error (hwpoison) destroyed the frame backing this
    /// mapping and the page could not be healed by migration: the SIGBUS
    /// equivalent. The mapping has been torn down; the frame is quarantined.
    MemoryFailure {
        /// Virtual address of the lost mapping.
        addr: VirtAddr,
        /// The poisoned physical frame.
        pfn: Pfn,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::UnmappedAddress { addr } => {
                write!(f, "fault at {addr} outside any VMA")
            }
            FaultError::OutOfMemory { addr, size } => {
                write!(f, "out of memory servicing a {size} fault at {addr}")
            }
            FaultError::AlreadyMapped { addr } => {
                write!(f, "spurious fault at already-mapped address {addr}")
            }
            FaultError::MemoryFailure { addr, pfn } => {
                write!(f, "memory failure: poisoned frame {pfn} killed mapping at {addr}")
            }
        }
    }
}

impl Error for FaultError {}

/// Failure to translate a virtual address through a page table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TranslateError {
    /// No translation is installed for the address.
    NotMapped {
        /// The untranslatable virtual address.
        addr: VirtAddr,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::NotMapped { addr } => write!(f, "no translation for {addr}"),
        }
    }
}

impl Error for TranslateError {}

/// Context attached to a [`ContigError`]: which process / VMA was being
/// serviced when the failure surfaced. Raw integers rather than the mm
/// layer's `Pid`/`VmaId` newtypes so this crate stays dependency-free; the
/// mm layer converts when attaching.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ErrorCtx {
    /// The faulting process id, when known.
    pub pid: Option<u32>,
    /// The start address of the VMA being serviced, when known (VMA ids are
    /// their start addresses throughout the workspace).
    pub(crate) vma_start: Option<VirtAddr>,
}

impl ErrorCtx {
    /// Empty context.
    pub(crate) const fn none() -> Self {
        Self { pid: None, vma_start: None }
    }

    /// Whether any field is populated.
    pub(crate) fn is_empty(&self) -> bool {
        self.pid.is_none() && self.vma_start.is_none()
    }
}

impl fmt::Display for ErrorCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.pid, self.vma_start) {
            (Some(pid), Some(vma)) => write!(f, "pid {pid}, vma {vma}"),
            (Some(pid), None) => write!(f, "pid {pid}"),
            (None, Some(vma)) => write!(f, "vma {vma}"),
            (None, None) => write!(f, "no context"),
        }
    }
}

/// The workspace-wide error: any layer's failure, with optional context about
/// which process/VMA it hit. Built via `From` on the layer errors (context
/// empty) or [`ContigError::with_pid`]/[`ContigError::with_vma`] where the mm
/// layer knows more.
///
/// # Examples
///
/// ```
/// use contig_types::{AllocError, ContigError, FaultError, VirtAddr};
///
/// let e: ContigError = AllocError::OutOfMemory { order: 9 }.into();
/// assert!(e.to_string().contains("order 9"));
///
/// let e = ContigError::from(FaultError::UnmappedAddress { addr: VirtAddr::new(0x1000) })
///     .with_pid(42);
/// assert!(e.to_string().contains("pid 42"));
/// assert_eq!(e.ctx().pid, Some(42));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ContigError {
    /// A physical-memory allocation failed.
    Alloc {
        /// The underlying allocator error.
        source: AllocError,
        /// Where it happened.
        ctx: ErrorCtx,
    },
    /// A page fault could not be serviced.
    Fault {
        /// The underlying fault error.
        source: FaultError,
        /// Where it happened.
        ctx: ErrorCtx,
    },
    /// An address translation failed.
    Translate {
        /// The underlying translation error.
        source: TranslateError,
        /// Where it happened.
        ctx: ErrorCtx,
    },
}

impl ContigError {
    /// The attached context.
    pub fn ctx(&self) -> ErrorCtx {
        match self {
            ContigError::Alloc { ctx, .. }
            | ContigError::Fault { ctx, .. }
            | ContigError::Translate { ctx, .. } => *ctx,
        }
    }

    fn ctx_mut(&mut self) -> &mut ErrorCtx {
        match self {
            ContigError::Alloc { ctx, .. }
            | ContigError::Fault { ctx, .. }
            | ContigError::Translate { ctx, .. } => ctx,
        }
    }

    /// Attaches the faulting process id.
    #[must_use]
    pub fn with_pid(mut self, pid: u32) -> Self {
        self.ctx_mut().pid = Some(pid);
        self
    }

    /// Attaches the VMA (by its start address, the workspace-wide VMA id).
    #[must_use]
    pub fn with_vma(mut self, vma_start: VirtAddr) -> Self {
        self.ctx_mut().vma_start = Some(vma_start);
        self
    }
}

impl fmt::Display for ContigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ctx = self.ctx();
        match self {
            ContigError::Alloc { source, .. } => write!(f, "allocation failed: {source}")?,
            ContigError::Fault { source, .. } => write!(f, "fault failed: {source}")?,
            ContigError::Translate { source, .. } => write!(f, "translation failed: {source}")?,
        }
        if !ctx.is_empty() {
            write!(f, " ({ctx})")?;
        }
        Ok(())
    }
}

impl Error for ContigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ContigError::Alloc { source, .. } => Some(source),
            ContigError::Fault { source, .. } => Some(source),
            ContigError::Translate { source, .. } => Some(source),
        }
    }
}

impl From<AllocError> for ContigError {
    fn from(source: AllocError) -> Self {
        ContigError::Alloc { source, ctx: ErrorCtx::none() }
    }
}

impl From<FaultError> for ContigError {
    fn from(source: FaultError) -> Self {
        ContigError::Fault { source, ctx: ErrorCtx::none() }
    }
}

impl From<TranslateError> for ContigError {
    fn from(source: TranslateError) -> Self {
        ContigError::Translate { source, ctx: ErrorCtx::none() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_error<E: Error + Send + Sync + 'static>() {}

    #[test]
    fn error_traits() {
        assert_error::<AllocError>();
        assert_error::<FaultError>();
        assert_error::<TranslateError>();
        assert_error::<ContigError>();
    }

    #[test]
    fn contig_error_preserves_source_and_context() {
        let e = ContigError::from(AllocError::TargetBusy { target: Pfn::new(7) })
            .with_pid(3)
            .with_vma(VirtAddr::new(0x40_0000));
        assert_eq!(e.ctx().pid, Some(3));
        assert_eq!(e.ctx().vma_start, Some(VirtAddr::new(0x40_0000)));
        assert!(e.source().is_some());
        let msg = e.to_string();
        assert!(msg.contains("pid 3"), "{msg}");
        assert!(msg.contains("already allocated"), "{msg}");
    }

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        for msg in [
            AllocError::OutOfMemory { order: 0 }.to_string(),
            FaultError::UnmappedAddress { addr: VirtAddr::new(0x1000) }.to_string(),
            TranslateError::NotMapped { addr: VirtAddr::new(0) }.to_string(),
        ] {
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
            assert!(!msg.ends_with('.'), "{msg}");
        }
    }
}
