//! Datagrams the kernel dropped at the NetFlow listeners' sockets.
//!
//! A UDP socket whose receive buffer is full drops every datagram that
//! arrives until a listener drains it, and counts the drop in the
//! `drops` column of `/proc/net/udp` (`/proc/net/udp6` for IPv6 sockets).
//! The daemon matches those rows to its own sockets by inode and sums
//! their drops at scrape time, so it can name the loss of a restart or an
//! overload that never reached a listener.

use std::net::UdpSocket;

/// The kernel tables of UDP sockets, IPv4 and IPv6.
#[cfg(target_os = "linux")]
const TABLES: [&str; 2] = ["/proc/net/udp", "/proc/net/udp6"];

/// The inode of a socket, from its `/proc/self/fd` link
/// (`socket:[<inode>]`). `None` where `/proc` is unavailable.
#[cfg(target_os = "linux")]
pub fn socket_inode(socket: &UdpSocket) -> Option<u64> {
    use std::os::fd::AsRawFd;
    let link = std::fs::read_link(format!("/proc/self/fd/{}", socket.as_raw_fd())).ok()?;
    link.to_str()?
        .strip_prefix("socket:[")?
        .strip_suffix(']')?
        .parse()
        .ok()
}

/// The inode of a socket: `None` off Linux, where no `/proc` tables
/// exist.
#[cfg(not(target_os = "linux"))]
pub fn socket_inode(_socket: &UdpSocket) -> Option<u64> {
    None
}

/// Summed `drops` of the rows of one `/proc/net/udp`-format table whose
/// socket is one of `inodes`. The header row and malformed rows count
/// nothing.
pub fn drops_in_table(table: &str, inodes: &[u64]) -> u64 {
    table
        .lines()
        .filter_map(|row| {
            // sl local rem st tx:rx tr:tm retrnsmt uid timeout inode ref
            // pointer drops
            let cols: Vec<&str> = row.split_whitespace().collect();
            let inode: u64 = cols.get(9)?.parse().ok()?;
            let drops: u64 = cols.get(12)?.parse().ok()?;
            inodes.contains(&inode).then_some(drops)
        })
        .sum()
}

/// Datagrams the kernel dropped at the sockets with these inodes, read
/// from both UDP tables now.
#[cfg(target_os = "linux")]
pub fn kernel_drops(inodes: &[u64]) -> u64 {
    TABLES
        .iter()
        .filter_map(|path| std::fs::read_to_string(path).ok())
        .map(|table| drops_in_table(&table, inodes))
        .sum()
}

/// Datagrams the kernel dropped at these sockets: 0 off Linux, where the
/// kernel keeps no such tables.
#[cfg(not(target_os = "linux"))]
pub fn kernel_drops(_inodes: &[u64]) -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    const UDP: &str = "\
   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
  117: 0100007F:270F 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 48213 2 0000000000000000 0
  118: 0100007F:2710 00000000:0000 07 00000000:00034000 00:00000000 00000000     0        0 48214 2 0000000000000000 1893
  412: 00000000:0044 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 9120 2 0000000000000000 7
";

    const UDP6: &str = "\
  sl  local_address                         remote_address                        st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
   3: 00000000000000000000000001000000:2711 00000000000000000000000000000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 48215 2 0000000000000000 12
";

    #[test]
    fn sums_the_drops_of_our_sockets_only() {
        assert_eq!(drops_in_table(UDP, &[48213, 48214]), 1_893);
        assert_eq!(drops_in_table(UDP, &[48213]), 0);
        assert_eq!(drops_in_table(UDP, &[]), 0);
        assert_eq!(drops_in_table(UDP6, &[48214, 48215]), 12);
    }

    #[test]
    fn header_and_malformed_rows_count_nothing() {
        assert_eq!(drops_in_table("", &[1]), 0);
        assert_eq!(
            drops_in_table("   sl  local_address rem_address\n", &[0]),
            0
        );
        // A row cut before its drops column.
        assert_eq!(
            drops_in_table(
                "  1: 0100007F:270F 00000000:0000 07 0:0 0:0 0 0 0 48213 2",
                &[48213]
            ),
            0
        );
    }

    #[test]
    fn a_bound_socket_has_an_inode_and_no_drops() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let Some(inode) = socket_inode(&socket) else {
            // No /proc here: the series then reads 0.
            return;
        };
        assert!(inode > 0);
        assert_eq!(kernel_drops(&[inode]), 0);
    }
}
