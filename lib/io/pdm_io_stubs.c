/* C stubs for the real-I/O backends: positional read/write on
   Bigarray block buffers, the O_DIRECT toggle, a file's size on open,
   buffer-address probing for alignment, and msync for the mmap
   barrier.

   OCaml's Unix library has no pread/pwrite, and going through a seek
   + read pair would both race and force an intermediate Bytes copy;
   these stubs work straight on the Bigarray data pointer. */

#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/unixsupport.h>

/* pread/pwrite loops: retry EINTR and partial transfers; return the
   byte count actually moved (short only at end-of-file for reads —
   the OCaml side treats a short count on a preallocated file as a
   hard error). */

CAMLprim value caml_pdm_io_pread(value vfd, value vbuf, value vpos,
                                 value vlen, value voff)
{
  CAMLparam5(vfd, vbuf, vpos, vlen, voff);
  char *base = (char *)Caml_ba_data_val(vbuf);
  int fd = Int_val(vfd);
  long pos = Long_val(vpos);
  long len = Long_val(vlen);
  long off = Long_val(voff);
  long done = 0;
  while (done < len) {
    ssize_t n = pread(fd, base + pos + done, len - done, off + done);
    if (n < 0) {
      if (errno == EINTR) continue;
      uerror("pread", Nothing);
    }
    if (n == 0) break; /* end of file */
    done += n;
  }
  CAMLreturn(Val_long(done));
}

CAMLprim value caml_pdm_io_pwrite(value vfd, value vbuf, value vpos,
                                  value vlen, value voff)
{
  CAMLparam5(vfd, vbuf, vpos, vlen, voff);
  char *base = (char *)Caml_ba_data_val(vbuf);
  int fd = Int_val(vfd);
  long pos = Long_val(vpos);
  long len = Long_val(vlen);
  long off = Long_val(voff);
  long done = 0;
  while (done < len) {
    ssize_t n = pwrite(fd, base + pos + done, len - done, off + done);
    if (n < 0) {
      if (errno == EINTR) continue;
      uerror("pwrite", Nothing);
    }
    if (n == 0) break;
    done += n;
  }
  CAMLreturn(Val_long(done));
}

/* Try to toggle O_DIRECT on an open descriptor. Returns true on
   success; false when the flag is unsupported (macOS, tmpfs, many
   CI filesystems) so callers can fall back to buffered I/O. */
CAMLprim value caml_pdm_io_set_direct(value vfd, value von)
{
#ifdef O_DIRECT
  int fd = Int_val(vfd);
  int flags = fcntl(fd, F_GETFL);
  if (flags < 0) return Val_false;
  if (Bool_val(von)) flags |= O_DIRECT;
  else flags &= ~O_DIRECT;
  if (fcntl(fd, F_SETFL, flags) < 0) return Val_false;
  return Val_true;
#else
  (void)vfd;
  (void)von;
  return Val_false;
#endif
}

/* Size in bytes of an open file, read before it is preallocated:
   a file that held nothing has no block headers to scan, and one
   larger than requested must not be truncated. */
CAMLprim value caml_pdm_io_file_size(value vfd)
{
  struct stat st;
  if (fstat(Int_val(vfd), &st) < 0) uerror("fstat", Nothing);
  return Val_long(st.st_size);
}

/* Address of a Bigarray's data, for carving sector-aligned slices
   out of an over-allocated buffer (O_DIRECT requires alignment). */
CAMLprim value caml_pdm_io_buf_addr(value vbuf)
{
  return caml_copy_nativeint((intnat)Caml_ba_data_val(vbuf));
}

/* Flush a shared file mapping to stable storage (mmap barrier).
   The mapping's base address is page-aligned by construction. */
CAMLprim value caml_pdm_io_msync(value vbuf)
{
  CAMLparam1(vbuf);
  char *base = (char *)Caml_ba_data_val(vbuf);
  long len = caml_ba_byte_size(Caml_ba_array_val(vbuf));
  if (len > 0 && msync(base, len, MS_SYNC) < 0) uerror("msync", Nothing);
  CAMLreturn(Val_unit);
}
