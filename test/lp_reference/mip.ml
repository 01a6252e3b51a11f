include Lp.Mip.Make (Dense)
