/**
 * @file
 * Trace serialization: a compact binary format and a human-readable
 * text format.
 *
 * Both readers stream: they pull fixed 64 KiB blocks from the stream
 * and decode events out of each block, so the only memory that grows
 * with the input is the trace itself (and, in the text format, one
 * line that is longer than a block). Both writers format into one
 * 64 KiB block and write it out whenever it fills.
 *
 * Cpu ids run from 0 to kMaxTraceCpu (65534) in both formats; 65535
 * is rejected because numCpus() would wrap to 0.
 */

#ifndef SWCC_SIM_TRACE_TRACE_IO_HH
#define SWCC_SIM_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "sim/trace/trace_buffer.hh"

namespace swcc
{

/**
 * Writes a trace in the binary format: the magic "SWCCTRC1", the
 * event count as a little-endian u64, then one 16-byte record per
 * event, the address as a little-endian u64 followed by
 * `cpu | type << 16` as a little-endian u64 (type 0-3 = i, l, s, f).
 * The record is fixed by the format, not by sizeof(TraceEvent): an
 * event takes 12 bytes in memory and still 16 on disk.
 *
 * @throws std::runtime_error on stream failure.
 */
void writeBinaryTrace(const TraceBuffer &trace, std::ostream &os);

/**
 * Reads a trace in the binary format. Bits 24-63 of the meta word are
 * ignored, as are any bytes after the last event.
 *
 * @throws std::runtime_error on a bad magic; on a header count larger
 *   than the bytes left in a seekable stream, or a stream that ends
 *   inside an event ("truncated trace"); on type bits above 3 or cpu
 *   id 65535, naming the event; or on stream failure.
 */
TraceBuffer readBinaryTrace(std::istream &is);

/**
 * Writes a trace as text: a '#' header line, then one
 * "cpu type hex-address\n" line per event, with the cpu in decimal and
 * the address in lower-case hex without a prefix.
 */
void writeTextTrace(const TraceBuffer &trace, std::ostream &os);

/**
 * Reads the text format. Lines end at '\n'; the last line needs none.
 * An empty line, or one whose first byte is '#', is skipped. Any other
 * line is split into tokens at runs of separators (space, tab, CR, VT,
 * FF), and its first three tokens are
 *
 *     cpu   decimal digits only, value 0..65534 (no sign);
 *     type  exactly one character: i, l, s or f;
 *     addr  hex digits in either case, with an optional 0x/0X prefix,
 *           no sign, fitting in 64 bits.
 *
 * Tokens after the third are ignored. A line of separators only is an
 * error, as is a comment that does not start in the first column.
 *
 * @throws std::runtime_error naming the offending line number.
 */
TraceBuffer readTextTrace(std::istream &is);

/** Convenience file wrappers; format chosen by extension (".swcc" binary, anything else text). */
void saveTrace(const TraceBuffer &trace, const std::string &path);
TraceBuffer loadTrace(const std::string &path);

} // namespace swcc

#endif // SWCC_SIM_TRACE_TRACE_IO_HH
