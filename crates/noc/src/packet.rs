//! Packet and message-class definitions.
//!
//! The paper's Figure 10 breaks NoC traffic into six groups; [`MessageClass`]
//! mirrors that categorisation exactly so the traffic comparison can be
//! regenerated.  [`PacketKind`] distinguishes control packets (requests,
//! acknowledgements, invalidations) from data packets (cache lines), which
//! have different sizes and therefore different flit counts and energy.

use std::fmt;

/// Size in bytes of a control packet (request / ack / invalidate).
pub const CONTROL_PACKET_BYTES: u64 = 8;

/// Size in bytes of a data packet (a 64-byte cache line plus header).
pub const DATA_PACKET_BYTES: u64 = 72;

/// Width of a NoC link in bytes; one flit traverses a link per cycle.
pub const FLIT_BYTES: u64 = 16;

/// The six traffic groups of the paper's Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageClass {
    /// Instruction fetch requests and their data responses.
    Ifetch,
    /// Data cache read requests, prefetch requests, data and acknowledgements.
    Read,
    /// Data cache write requests (including ownership upgrades), data and acks.
    Write,
    /// Write-backs, replacements, invalidations and their data/acks.
    WbRepl,
    /// DMA requests, data and acknowledgements issued by the DMACs.
    Dma,
    /// Traffic introduced by the proposed coherence protocol (filter/filterDir
    /// requests, broadcasts, invalidations, remote SPM accesses).
    CohProt,
}

impl MessageClass {
    /// All classes in the order used by the paper's figures.
    pub const ALL: [MessageClass; 6] = [
        MessageClass::Ifetch,
        MessageClass::Read,
        MessageClass::Write,
        MessageClass::WbRepl,
        MessageClass::Dma,
        MessageClass::CohProt,
    ];

    /// Short label used in reports (matches the paper's legend).
    pub fn label(self) -> &'static str {
        match self {
            MessageClass::Ifetch => "Ifetch",
            MessageClass::Read => "Read",
            MessageClass::Write => "Write",
            MessageClass::WbRepl => "WB-Repl",
            MessageClass::Dma => "DMA",
            MessageClass::CohProt => "CohProt",
        }
    }

    /// Stable index of the class (position in [`MessageClass::ALL`]).
    pub fn index(self) -> usize {
        match self {
            MessageClass::Ifetch => 0,
            MessageClass::Read => 1,
            MessageClass::Write => 2,
            MessageClass::WbRepl => 3,
            MessageClass::Dma => 4,
            MessageClass::CohProt => 5,
        }
    }
}

impl fmt::Display for MessageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether a packet carries a payload (cache-line data) or only control
/// information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Request, acknowledgement, negative acknowledgement or invalidation.
    Control,
    /// A packet carrying a full cache line of data.
    Data,
}

impl PacketKind {
    /// The kind implied by a payload size: anything shorter than half a cache
    /// line is a control packet, everything else carries data.
    pub fn for_payload(payload_bytes: u64) -> Self {
        if payload_bytes >= 32 {
            PacketKind::Data
        } else {
            PacketKind::Control
        }
    }

    /// Packet size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            PacketKind::Control => CONTROL_PACKET_BYTES,
            PacketKind::Data => DATA_PACKET_BYTES,
        }
    }

    /// Number of flits needed to carry the packet over a [`FLIT_BYTES`]-wide link.
    pub fn flits(self) -> u64 {
        self.bytes().div_ceil(FLIT_BYTES)
    }
}

impl fmt::Display for PacketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketKind::Control => f.write_str("control"),
            PacketKind::Data => f.write_str("data"),
        }
    }
}

/// Number of virtual channels of the discrete-event NoC.
pub const NUM_VIRTUAL_CHANNELS: usize = 3;

/// Virtual channels of the discrete-event NoC.
///
/// Directory protocols deadlock if requests, responses and write-backs share
/// one buffer class (a stalled request FIFO can then block the very response
/// that would unstall it), so real coherence NoCs separate them — BedRock's
/// three-channel LCE/CCE transport is the canonical example.  The
/// discrete-event backend gives each channel its own per-link FIFO so the
/// classes cannot deadlock-couple; the analytic backend needs no channels
/// because it never queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VirtualChannel {
    /// Requests, acknowledgements and invalidations (control packets).
    Request,
    /// Data-bearing responses (cache lines, SPM transfers).
    Response,
    /// Write-backs and replacements, which must drain independently.
    Writeback,
}

impl VirtualChannel {
    /// All virtual channels, in index order.
    pub const ALL: [VirtualChannel; NUM_VIRTUAL_CHANNELS] = [
        VirtualChannel::Request,
        VirtualChannel::Response,
        VirtualChannel::Writeback,
    ];

    /// The channel a packet travels on, from its traffic class and kind.
    pub fn for_packet(class: MessageClass, kind: PacketKind) -> Self {
        match (class, kind) {
            (MessageClass::WbRepl, _) => VirtualChannel::Writeback,
            (_, PacketKind::Data) => VirtualChannel::Response,
            (_, PacketKind::Control) => VirtualChannel::Request,
        }
    }

    /// Stable index of the channel (position in [`VirtualChannel::ALL`]).
    pub fn index(self) -> usize {
        match self {
            VirtualChannel::Request => 0,
            VirtualChannel::Response => 1,
            VirtualChannel::Writeback => 2,
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            VirtualChannel::Request => "req",
            VirtualChannel::Response => "resp",
            VirtualChannel::Writeback => "wb",
        }
    }
}

impl fmt::Display for VirtualChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_labels_match_paper_legend() {
        assert_eq!(MessageClass::WbRepl.label(), "WB-Repl");
        assert_eq!(MessageClass::CohProt.to_string(), "CohProt");
        assert_eq!(MessageClass::ALL.len(), 6);
    }

    #[test]
    fn class_index_is_stable_and_unique() {
        for (i, c) in MessageClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn packet_sizes_and_flits() {
        assert_eq!(PacketKind::Control.bytes(), 8);
        assert_eq!(PacketKind::Data.bytes(), 72);
        assert_eq!(PacketKind::Control.flits(), 1);
        assert_eq!(PacketKind::Data.flits(), 5);
        assert_eq!(PacketKind::Data.to_string(), "data");
        assert_eq!(PacketKind::for_payload(8), PacketKind::Control);
        assert_eq!(PacketKind::for_payload(64), PacketKind::Data);
    }

    #[test]
    fn virtual_channel_mapping_separates_classes() {
        // Write-backs never share a channel with anything else.
        assert_eq!(
            VirtualChannel::for_packet(MessageClass::WbRepl, PacketKind::Control),
            VirtualChannel::Writeback
        );
        assert_eq!(
            VirtualChannel::for_packet(MessageClass::WbRepl, PacketKind::Data),
            VirtualChannel::Writeback
        );
        // Requests and responses split on the packet kind.
        assert_eq!(
            VirtualChannel::for_packet(MessageClass::Read, PacketKind::Control),
            VirtualChannel::Request
        );
        assert_eq!(
            VirtualChannel::for_packet(MessageClass::Read, PacketKind::Data),
            VirtualChannel::Response
        );
        for (i, vc) in VirtualChannel::ALL.iter().enumerate() {
            assert_eq!(vc.index(), i);
            assert!(!vc.label().is_empty());
        }
        assert_eq!(VirtualChannel::ALL.len(), NUM_VIRTUAL_CHANNELS);
        assert_eq!(VirtualChannel::Writeback.to_string(), "wb");
    }
}
