/* Frame's block copies, both directions: a memcpy of [len] bytes between
   a frame's buffer of tagged ints and an int array, at byte offsets
   whose ranges frame.ml has checked. */
#include <string.h>
#include <caml/mlvalues.h>

value platinum_frame_copy(value src, intnat src_off, value dst, intnat dst_off, intnat len)
{
  memcpy((char *) dst + dst_off, (char *) src + src_off, len);
  return Val_unit;
}

value platinum_frame_copy_byte(value src, value src_off, value dst, value dst_off, value len)
{
  return platinum_frame_copy(src, Long_val(src_off), dst, Long_val(dst_off), Long_val(len));
}
