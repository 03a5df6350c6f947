//! Batched datagram I/O via `recvmmsg(2)`/`sendmmsg(2)`.
//!
//! The drain loop in [`crate::netflow_listener`] makes exactly one
//! receive call per round: at high packet rates the per-`recvfrom`
//! syscall cost *is* the ingest hot path's dominant term (the decode
//! itself is a few dozen nanoseconds per record). On Linux that call is
//! one blocking `recvmmsg(2)` with `MSG_WAITFORONE`: it waits, up to the
//! socket's `SO_RCVTIMEO`, for the first datagram, then takes whatever
//! else is already queued — payloads *and* source addresses — up to the
//! ring's slot count, without waiting again. The transmit-side twin,
//! [`send_burst`], exists for load generators that must out-pace the
//! listener they are measuring.
//!
//! As with [`crate::reuseport`], this build links no libc crate, so the
//! syscall and its argument structures are declared here, gated to
//! Linux, and kept behind a safe interface: the crate-private
//! `MmsgRing` owns all the receive buffers, address storage, and
//! header arrays for a listener thread, and its `recv` hands back
//! parsed `(payload, peer)` views. On other platforms `recv` is one
//! blocking `recv_from` that returns one datagram — behaviour is
//! identical, only the syscall amortization is lost.

use std::io;
use std::net::UdpSocket;

pub(crate) use sys::MmsgRing;

/// Send every payload as one datagram on a **connected** UDP socket,
/// using a single `sendmmsg(2)` syscall on Linux and a per-datagram
/// `send` loop elsewhere. Returns how many payloads were sent (the
/// kernel may stop short under memory pressure).
///
/// This is the transmit-side twin of the receive ring, exported for load
/// generators — `flowdns-bench`'s saturation harness uses it so that
/// the *driver's* syscall cost doesn't become the bottleneck being
/// measured when driving the listener path at saturation.
pub fn send_burst(socket: &UdpSocket, payloads: &[&[u8]]) -> io::Result<usize> {
    if payloads.is_empty() {
        return Ok(0);
    }
    sys::send_burst(socket, payloads)
}

#[cfg(target_os = "linux")]
mod sys {
    use std::io;
    use std::net::UdpSocket;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};
    use std::os::fd::AsRawFd;

    // Linux ABI declarations (x86_64/aarch64 generic values), matching
    // the style of `crate::reuseport::sys`.
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    /// Block for the first datagram only, then take what is queued.
    const MSG_WAITFORONE: i32 = 0x10000;
    /// `sizeof(struct sockaddr_storage)` — large enough for any family.
    const NAME_LEN: usize = 128;

    #[repr(C)]
    struct IoVec {
        iov_base: *mut u8,
        iov_len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        msg_name: *mut u8,
        msg_namelen: u32,
        msg_iov: *mut IoVec,
        msg_iovlen: usize,
        msg_control: *mut u8,
        msg_controllen: usize,
        msg_flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        msg_hdr: MsgHdr,
        msg_len: u32,
    }

    // Each unsafe-bearing item carries its own allow, so new unsafe
    // code elsewhere in the crate still trips `deny(unsafe_code)`.
    #[allow(unsafe_code)]
    extern "C" {
        fn recvmmsg(
            fd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut core::ffi::c_void,
        ) -> i32;
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    }

    #[allow(unsafe_code)]
    pub(super) fn send_burst(socket: &UdpSocket, payloads: &[&[u8]]) -> io::Result<usize> {
        // The socket is connected, so each message carries no name; the
        // iovecs borrow the caller's payload slices for the duration of
        // the call only.
        let mut iovecs: Vec<IoVec> = payloads
            .iter()
            .map(|p| IoVec {
                iov_base: p.as_ptr() as *mut u8,
                iov_len: p.len(),
            })
            .collect();
        let mut hdrs: Vec<MMsgHdr> = iovecs
            .iter_mut()
            .map(|iov| MMsgHdr {
                msg_hdr: MsgHdr {
                    msg_name: std::ptr::null_mut(),
                    msg_namelen: 0,
                    msg_iov: iov,
                    msg_iovlen: 1,
                    msg_control: std::ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            })
            .collect();
        // SAFETY: every pointer in `hdrs` targets `iovecs`/`payloads`
        // storage that outlives this call; vlen matches the array.
        let rc = unsafe { sendmmsg(socket.as_raw_fd(), hdrs.as_mut_ptr(), hdrs.len() as u32, 0) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(rc as usize)
    }

    /// Pre-allocated receive state for one listener thread: `slots`
    /// datagram buffers of `buf_len` bytes each, plus the per-message
    /// address storage and header arrays `recvmmsg(2)` scatters into.
    pub(crate) struct MmsgRing {
        // Box<[u8]> keeps every base pointer stable for the lifetime of
        // the ring, so the header arrays can be built once and reused
        // for every syscall (the Vecs are never grown, so their heap
        // allocations are stable too).
        bufs: Vec<Box<[u8]>>,
        names: Vec<[u8; NAME_LEN]>,
        iovecs: Vec<IoVec>,
        hdrs: Vec<MMsgHdr>,
    }

    // SAFETY: the raw pointers in `iovecs`/`hdrs` only ever point into
    // `bufs`/`names` owned by the same ring; moving the ring between
    // threads moves all of them together and they are only dereferenced
    // (by the kernel) during `recv` while `&mut self` is held.
    #[allow(unsafe_code)]
    unsafe impl Send for MmsgRing {}

    impl MmsgRing {
        /// Allocate a ring. `slots` bounds how many datagrams one `recv`
        /// returns (the drain depth); `buf_len` must be the largest
        /// datagram the protocol allows, or tails would be truncated.
        pub(crate) fn new(slots: usize, buf_len: usize) -> MmsgRing {
            let slots = slots.max(1);
            let mut bufs: Vec<Box<[u8]>> = (0..slots)
                .map(|_| vec![0u8; buf_len.max(1)].into_boxed_slice())
                .collect();
            let mut names: Vec<[u8; NAME_LEN]> = vec![[0u8; NAME_LEN]; slots];
            let mut iovecs: Vec<IoVec> = bufs
                .iter_mut()
                .map(|b| IoVec {
                    iov_base: b.as_mut_ptr(),
                    iov_len: b.len(),
                })
                .collect();
            let hdrs: Vec<MMsgHdr> = iovecs
                .iter_mut()
                .zip(names.iter_mut())
                .map(|(iov, name)| MMsgHdr {
                    msg_hdr: MsgHdr {
                        msg_name: name.as_mut_ptr(),
                        msg_namelen: NAME_LEN as u32,
                        msg_iov: iov,
                        msg_iovlen: 1,
                        msg_control: std::ptr::null_mut(),
                        msg_controllen: 0,
                        msg_flags: 0,
                    },
                    msg_len: 0,
                })
                .collect();
            MmsgRing {
                bufs,
                names,
                iovecs,
                hdrs,
            }
        }

        /// Receive between one and `slots` datagrams from `socket` in
        /// one syscall, blocking up to the socket's read timeout for the
        /// first; `WouldBlock`/`TimedOut` means none arrived in time.
        /// Returns the number received; the payload/peer of each is then
        /// readable via [`MmsgRing::datagram`].
        #[allow(unsafe_code)]
        pub(crate) fn recv(&mut self, socket: &UdpSocket) -> io::Result<usize> {
            // `recvmmsg` writes back each msg_namelen; reset before reuse.
            for hdr in &mut self.hdrs {
                hdr.msg_hdr.msg_namelen = NAME_LEN as u32;
            }
            // SAFETY: every pointer in `hdrs` targets storage owned by
            // `self` and sized as declared; vlen matches the array.
            let rc = unsafe {
                recvmmsg(
                    socket.as_raw_fd(),
                    self.hdrs.as_mut_ptr(),
                    self.hdrs.len() as u32,
                    MSG_WAITFORONE,
                    std::ptr::null_mut(),
                )
            };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(rc as usize)
        }

        /// Payload and source address of datagram `index` from the most
        /// recent `recv`. Panics if `index` is out of range or the peer
        /// address family is unknown (the kernel only hands back families
        /// the socket speaks, so that indicates memory corruption).
        pub(crate) fn datagram(&self, index: usize) -> (&[u8], SocketAddr) {
            let hdr = &self.hdrs[index];
            let payload = &self.bufs[index][..hdr.msg_len as usize];
            let name = &self.names[index][..];
            let family = u16::from_ne_bytes([name[0], name[1]]);
            // sockaddr port fields are big-endian on the wire.
            let port = u16::from_be_bytes([name[2], name[3]]);
            let peer = match family {
                AF_INET => {
                    let ip = Ipv4Addr::new(name[4], name[5], name[6], name[7]);
                    SocketAddr::new(IpAddr::V4(ip), port)
                }
                AF_INET6 => {
                    let mut octets = [0u8; 16];
                    octets.copy_from_slice(&name[8..24]);
                    SocketAddr::new(IpAddr::V6(Ipv6Addr::from(octets)), port)
                }
                other => unreachable!("recvmmsg returned address family {other}"),
            };
            (payload, peer)
        }

        // `iovecs` is only read through raw pointers in `hdrs`.
        #[allow(dead_code)]
        fn keep_alive(&self) -> usize {
            self.iovecs.len()
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Portable receive: one blocking `recv_from` per call.
    use std::io;
    use std::net::{SocketAddr, UdpSocket};

    pub(super) fn send_burst(socket: &UdpSocket, payloads: &[&[u8]]) -> io::Result<usize> {
        for (i, payload) in payloads.iter().enumerate() {
            if let Err(e) = socket.send(payload) {
                return if i == 0 { Err(e) } else { Ok(i) };
            }
        }
        Ok(payloads.len())
    }

    /// One datagram buffer and its peer.
    pub(crate) struct MmsgRing {
        buf: Box<[u8]>,
        len: usize,
        peer: SocketAddr,
    }

    impl MmsgRing {
        pub(crate) fn new(_slots: usize, buf_len: usize) -> MmsgRing {
            MmsgRing {
                buf: vec![0u8; buf_len.max(1)].into_boxed_slice(),
                len: 0,
                peer: SocketAddr::from(([0, 0, 0, 0], 0)),
            }
        }

        /// One blocking `recv_from`, up to the socket's read timeout.
        pub(crate) fn recv(&mut self, socket: &UdpSocket) -> io::Result<usize> {
            let (len, peer) = socket.recv_from(&mut self.buf)?;
            self.len = len;
            self.peer = peer;
            Ok(1)
        }

        /// The datagram of the last `recv`, which returns one, so
        /// index 0 is the only one a caller asks for.
        pub(crate) fn datagram(&self, _index: usize) -> (&[u8], SocketAddr) {
            (&self.buf[..self.len], self.peer)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;
    use std::net::UdpSocket;
    use std::time::{Duration, Instant};

    /// A receiver with the listener's 50 ms read timeout.
    fn receiver() -> UdpSocket {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        socket
    }

    #[test]
    fn empty_socket_times_out_after_the_read_timeout() {
        let socket = receiver();
        let mut ring = MmsgRing::new(4, 2048);
        let started = Instant::now();
        let err = ring.recv(&socket).unwrap_err();
        assert!(
            matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{err}"
        );
        assert!(
            started.elapsed() >= Duration::from_millis(40),
            "did not block"
        );
    }

    #[test]
    fn burst_is_received_in_one_call_with_peers() {
        let receiver = receiver();
        let target = receiver.local_addr().unwrap();
        let senders: Vec<UdpSocket> = (0..5)
            .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
            .collect();
        for (i, sender) in senders.iter().enumerate() {
            sender.send_to(&[i as u8; 7], target).unwrap();
        }
        let mut ring = MmsgRing::new(8, 2048);
        // Loopback delivers before `send_to` returns, so the burst is
        // queued whole; other platforms take one datagram per call.
        let expected = if cfg!(target_os = "linux") { 5 } else { 1 };
        assert_eq!(ring.recv(&receiver).unwrap(), expected);
        for (i, sender) in senders.iter().enumerate().take(expected) {
            let (payload, peer) = ring.datagram(i);
            assert_eq!(payload, &[i as u8; 7]);
            assert_eq!(peer, sender.local_addr().unwrap());
        }
    }

    #[test]
    fn one_slot_ring_returns_one_datagram_per_call() {
        let receiver = receiver();
        let target = receiver.local_addr().unwrap();
        let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
        for round in 0..3u8 {
            sender.send_to(&[round], target).unwrap();
        }
        let mut ring = MmsgRing::new(1, 64);
        for round in 0..3u8 {
            assert_eq!(ring.recv(&receiver).unwrap(), 1);
            assert_eq!(ring.datagram(0).0, &[round]);
        }
        let err = ring.recv(&receiver).unwrap_err();
        assert!(matches!(
            err.kind(),
            ErrorKind::WouldBlock | ErrorKind::TimedOut
        ));
    }

    #[test]
    fn send_burst_delivers_every_payload() {
        let receiver = UdpSocket::bind("127.0.0.1:0").unwrap();
        let target = receiver.local_addr().unwrap();
        let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
        sender.connect(target).unwrap();
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; (i as usize) + 3]).collect();
        let views: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        assert_eq!(send_burst(&sender, &[]).unwrap(), 0);
        let sent = send_burst(&sender, &views).unwrap();
        assert_eq!(sent, 4);
        receiver
            .set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 64];
        for payload in &payloads {
            let n = receiver.recv(&mut buf).unwrap();
            assert_eq!(&buf[..n], payload.as_slice());
        }
    }
}
