//! The socket loop's readiness wait: one `ppoll(2)` over a list of
//! descriptors, so [`crate::evented`] reads and accepts only on sockets
//! the kernel reported ready and sleeps in the kernel otherwise.
//!
//! `std` has no `poll` wrapper and the workspace has no `libc` crate, so
//! this module declares the glibc symbol itself. `ppoll` rather than
//! `poll` because the loop's deadlines (group-commit linger, delayed
//! frames) are in µs and `poll` takes whole milliseconds.
//!
//! # Safety argument
//!
//! This is the one module of the crate allowed `unsafe_code`, and it
//! holds a single call, in [`wait`]. The pointer and length passed to
//! `ppoll` come from one live `&mut [PollFd]`, and `PollFd` is
//! `#[repr(C)]` with the kernel's `struct pollfd` layout, so the kernel
//! reads and writes exactly the entries that slice owns. The timeout is
//! a local borrowed for the duration of the call and the signal mask is
//! null (left unchanged). The call touches no other memory; a descriptor
//! that is not open is reported in `revents` (`POLLNVAL`), not acted on.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::ffi::{c_int, c_long, c_short, c_ulong};
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// `POLLIN`: data (or a pending connection) to read.
pub(crate) const READABLE: c_short = 0x001;
/// `POLLOUT`: room in the send buffer.
pub(crate) const WRITABLE: c_short = 0x004;
/// `POLLERR | POLLHUP | POLLNVAL`: reported whether asked for or not.
const HUNG_UP: c_short = 0x008 | 0x010 | 0x020;

/// One entry of the wait list: the kernel's `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Waits for `events` (a mask of [`READABLE`] and [`WRITABLE`]) on
    /// `socket`.
    pub(crate) fn new(socket: &impl AsRawFd, events: c_short) -> Self {
        PollFd { fd: socket.as_raw_fd(), events, revents: 0 }
    }

    /// The last wait reported data to read, or a hang-up or error that a
    /// read will surface.
    pub(crate) fn readable(&self) -> bool {
        self.revents & (READABLE | HUNG_UP) != 0
    }
}

/// `struct timespec` on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const u8,
    ) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready or `timeout` passes, and
/// returns how many are ready; each entry's readiness is then in
/// [`PollFd::readable`]. A signal (`EINTR`) counts as a wake with no
/// events.
///
/// # Errors
///
/// `ENOMEM` from the kernel — the only failure a list of open
/// descriptors can meet.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let timeout = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: timeout.subsec_nanos() as c_long, // < 10⁹
    };
    // SAFETY: pointer and length describe the live, exclusively borrowed
    // `fds`, whose element type has the kernel's layout; `timeout` lives
    // across the call; a null mask is allowed and means "unchanged".
    let ready =
        unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, &timeout, std::ptr::null()) };
    if let Ok(ready) = usize::try_from(ready) {
        return Ok(ready);
    }
    let error = io::Error::last_os_error();
    if error.kind() == io::ErrorKind::Interrupted {
        fds.iter_mut().for_each(|fd| fd.revents = 0);
        return Ok(0);
    }
    Err(error)
}
