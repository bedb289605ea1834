#include "loader/elf_writer.h"

#include <string_view>

#include "soteria/error.h"

namespace soteria::loader {

namespace {

/// Endianness-aware scalar appender mirroring the loader's Reader.
class Writer {
 public:
  explicit Writer(bool big_endian) noexcept : big_endian_(big_endian) {}

  void u8(std::uint8_t value) { bytes_.push_back(value); }
  void u16(std::uint16_t value) { scalar(value, 2); }
  void u32(std::uint32_t value) { scalar(value, 4); }
  void u64(std::uint64_t value) { scalar(value, 8); }
  void word(std::uint64_t value, bool elf64) {
    if (elf64) {
      u64(value);
    } else {
      u32(static_cast<std::uint32_t>(value));
    }
  }
  void raw(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }
  void pad_to(std::size_t offset) {
    while (bytes_.size() < offset) bytes_.push_back(0);
  }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  void scalar(std::uint64_t value, unsigned width) {
    for (unsigned i = 0; i < width; ++i) {
      const unsigned shift = 8 * (big_endian_ ? width - 1 - i : i);
      bytes_.push_back(static_cast<std::uint8_t>((value >> shift) & 0xff));
    }
  }

  std::vector<std::uint8_t> bytes_;
  bool big_endian_;
};

}  // namespace

std::vector<std::uint8_t> write_elf(std::span<const std::uint8_t> code,
                                    const ElfWriteOptions& options) {
  const bool elf64 = options.elf_class == ElfClass::kElf64;
  if (!elf64 && options.elf_class != ElfClass::kElf32) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "write_elf: elf_class must be kElf32 or kElf64");
  }
  if (options.entry_offset > code.size()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "write_elf: entry_offset outside code");
  }

  const std::uint64_t ehsize = elf64 ? 64 : 52;
  const std::uint64_t phentsize = elf64 ? 56 : 32;
  const std::uint64_t shentsize = elf64 ? 64 : 40;
  constexpr std::string_view kShstrtab{"\0.text\0.shstrtab\0", 17};
  constexpr std::uint32_t kTextNameOffset = 1;
  constexpr std::uint32_t kShstrtabNameOffset = 7;

  // File layout: [ehdr][phdr][.text][.shstrtab][shdr x 3], with .text
  // aligned to 16 and the section header table to the word size.
  const std::uint64_t text_offset = ((ehsize + phentsize) + 15) / 16 * 16;
  const std::uint64_t strtab_offset = text_offset + code.size();
  const std::uint64_t align = elf64 ? 8 : 4;
  const std::uint64_t shoff =
      (strtab_offset + kShstrtab.size() + align - 1) / align * align;

  Writer w(options.big_endian);
  // e_ident.
  for (const char magic : {'\x7f', 'E', 'L', 'F'}) {
    w.u8(static_cast<std::uint8_t>(magic));
  }
  w.u8(elf64 ? 2 : 1);                   // EI_CLASS
  w.u8(options.big_endian ? 2 : 1);      // EI_DATA
  w.u8(1);                               // EI_VERSION
  w.pad_to(16);
  w.u16(2);                              // e_type = ET_EXEC
  w.u16(options.machine);
  w.u32(1);                              // e_version
  w.word(options.text_vaddr + options.entry_offset, elf64);  // e_entry
  w.word(ehsize, elf64);                 // e_phoff
  w.word(shoff, elf64);                  // e_shoff
  w.u32(0);                              // e_flags
  w.u16(static_cast<std::uint16_t>(ehsize));
  w.u16(static_cast<std::uint16_t>(phentsize));
  w.u16(1);                              // e_phnum
  w.u16(static_cast<std::uint16_t>(shentsize));
  w.u16(3);                              // e_shnum
  w.u16(2);                              // e_shstrndx

  // Program header: one executable PT_LOAD covering .text.
  const std::uint32_t kPfRX = 0x5;  // PF_R | PF_X
  w.u32(1);                              // p_type = PT_LOAD
  if (elf64) w.u32(kPfRX);               // p_flags (ELF64 position)
  w.word(text_offset, elf64);            // p_offset
  w.word(options.text_vaddr, elf64);     // p_vaddr
  w.word(options.text_vaddr, elf64);     // p_paddr
  w.word(code.size(), elf64);            // p_filesz
  w.word(code.size(), elf64);            // p_memsz
  if (!elf64) w.u32(kPfRX);              // p_flags (ELF32 position)
  w.word(16, elf64);                     // p_align

  w.pad_to(static_cast<std::size_t>(text_offset));
  w.raw(code);
  w.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kShstrtab.data()),
      kShstrtab.size()));
  w.pad_to(static_cast<std::size_t>(shoff));

  const auto section = [&](std::uint32_t name, std::uint32_t type,
                           std::uint64_t flags, std::uint64_t addr,
                           std::uint64_t offset, std::uint64_t size) {
    w.u32(name);
    w.u32(type);
    w.word(flags, elf64);
    w.word(addr, elf64);
    w.word(offset, elf64);
    w.word(size, elf64);
    w.u32(0);                            // sh_link
    w.u32(0);                            // sh_info
    w.word(type == 0 ? 0 : 1, elf64);    // sh_addralign
    w.word(0, elf64);                    // sh_entsize
  };
  section(0, 0, 0, 0, 0, 0);  // SHT_NULL
  section(kTextNameOffset, /*SHT_PROGBITS=*/1,
          /*SHF_ALLOC|SHF_EXECINSTR=*/0x6, options.text_vaddr, text_offset,
          code.size());
  section(kShstrtabNameOffset, /*SHT_STRTAB=*/3, 0, 0, strtab_offset,
          kShstrtab.size());

  return w.take();
}

}  // namespace soteria::loader
